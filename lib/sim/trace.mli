(** Message-level tracing.

    The paper (§3) credits the platform's logging with making results
    "traceable, analyzable and (in limits) repeatable". This module is
    that facility for the simulated network: when attached to a {!Net},
    every message becomes an event (time, endpoints, kind, size, outcome)
    that can be analyzed after the fact — per-kind message mixes, hot
    peers, timelines. Tracing is off unless a trace is attached, so the
    default path pays nothing.

    Repeatability comes from the simulator itself: same seed, same trace. *)

type outcome =
  | Delivered
  | Dropped  (** lost to the iid loss process *)
  | To_dead  (** destination dead at delivery time *)
  | In_flight  (** not yet resolved (end of run) *)

val pp_outcome : Format.formatter -> outcome -> unit

type event = {
  time : float;  (** send time (ms) *)
  src : int;
  dst : int;
  kind : string;  (** message constructor name, e.g. ["lookup"] *)
  bytes : int;
  corr : int;
      (** correlation id linking a request to its replies (the protocol's
          request id); [-1] when the message carries none *)
  mutable outcome : outcome;
}

type t

val create : unit -> t
val clear : t -> unit

(** Events in send order. *)
val events : t -> event list

val length : t -> int

(** Used by {!Net}: append an event (returned so the delivery code can
    resolve its outcome later). [corr] defaults to [-1] (uncorrelated). *)
val record :
  t -> ?corr:int -> time:float -> src:int -> dst:int -> kind:string -> bytes:int -> unit -> event

(** [mark t ~time ~src ~kind ()] records an out-of-band marker event — an
    injected fault ([fault.crash], [fault.revive], …) or a protocol
    annotation ([fault.partial], [fault.retry]) — as a zero-byte
    self-event whose outcome is already resolved, so in-flight
    accounting ignores it. [corr] links the marker to a request id when
    it concerns one. *)
val mark : t -> ?corr:int -> time:float -> src:int -> kind:string -> unit -> unit

(** [is_fault e] holds for marker events whose kind starts with
    ["fault."] — injected faults and partial-result and retry
    annotations. They are recorded outside {!Net.send}, so
    message-conservation checks must skip them. *)
val is_fault : event -> bool

(** [is_marker e] holds for every out-of-band marker namespace:
    {!is_fault} plus the service queue's ["queue.*"] annotations
    (see {!Net.set_service}). *)
val is_marker : event -> bool

(** {2 Analysis} *)

(** [by_kind t] lists [(kind, count, bytes)] sorted by count, descending. *)
val by_kind : t -> (string * int * int) list

(** [busiest_peers t ~top] lists [(peer, sent, received)] for the [top]
    peers by total traffic. *)
val busiest_peers : t -> top:int -> (int * int * int) list

(** [timeline t ~bucket_ms] is the message count per time bucket,
    starting at the first event's bucket. *)
val timeline : t -> bucket_ms:float -> (float * int) list

(** Count of events with each outcome: delivered, dropped, to_dead,
    in_flight. *)
val outcome_counts : t -> int * int * int * int

(** Human-readable analysis report. *)
val pp_summary : Format.formatter -> t -> unit
