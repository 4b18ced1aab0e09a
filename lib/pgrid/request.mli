(** The overlay's request state machine: one pending record per
    in-flight operation, from the first send to its result.

    Every public {!Overlay} operation registers here, keyed by a fresh
    request id. Each request arms a timeout {e before} its first send;
    when it fires with the request still pending, the request is re-sent
    — up to [Config.retries] times, the [n]th retry waiting
    [base * retry_backoff^n] with [retry_jitter] drawn from the overlay
    RNG — and then given up as an explicitly partial result. [base] is
    the origin's {!Rtt} estimate when adaptive timeouts are on and warm,
    else [Config.timeout_ms].

    The three kinds differ only in how a retry resets them and how a
    result reports coverage:
    - [Single] (lookup, insert, update, delete): one destination; a retry
      distrusts the routing shortcut the last attempt took; coverage is
      all or nothing.
    - [Shower] (range, prefix, broadcast): token-exact termination over
      the split tree; a retry re-issues the whole wave and ignores the
      old wave's tokens; coverage is answered / addressed regions.
    - [Batch] (bulk insert, multi-key lookup): per-key acks; a retry
      re-sends only unacked keys; coverage is acked / sent keys. *)

(** Outcome of a data-access operation (re-exported as
    {!Overlay.result}). *)
type result = {
  items : Store.item list;
  hops : int;  (** longest message chain involved *)
  peers_hit : int;  (** peers that executed local work *)
  complete : bool;  (** false on timeout / unreachable region *)
  completeness : float;
      (** coverage estimate in [0,1], [1.0] iff [complete] *)
  latency : float;  (** simulated ms from issue to completion *)
}

(** Histogram ladder for fan-out and batch-size series. *)
val fanout_buckets : float list

(** The complete answer to an empty request. *)
val empty : result

(** The answer of a request the simulator stopped before it finished. *)
val unfinished : result

type t

val create : net:Message.t Net.t -> rng:Unistore_util.Rng.t -> config:Config.t -> t

(** The live parameter set; timers read it when they fire. *)
val config : t -> Config.t

val set_config : t -> Config.t -> unit

(** A fresh id from the counter shared by request ids and shower
    tokens. *)
val fresh_rid : t -> int

type kind =
  | Single
  | Shower
  | Batch of { keys : string list; on_ack : string -> Store.item list -> unit }
      (** [keys] of the batch, one per sent element (coverage counts
          them); [on_ack] sees each key's payload once, on its first
          ack *)

(** [start t ~op ~origin kind ~k ~send] mints the request id, registers
    the request, arms its first timeout and calls [send rid]; every
    retry calls [send rid] again. [op] labels metrics and RTT classes;
    [k] receives the result exactly once. *)
val start :
  t -> op:string -> origin:Node.t -> kind -> k:(result -> unit) -> send:(int -> unit) -> unit

(** [live t rid] holds while request [rid] has not finished. *)
val live : t -> int -> bool

(** {2 Progress reported by the overlay} *)

(** A [Single] request took a routing shortcut to [peer]. *)
val set_via : t -> int -> int -> unit

(** The responsible peer answered a [Single] request ([from] is the
    replying peer, absent when the origin answered itself). *)
val answer : t -> int -> ?from:int -> items:Store.item list -> hops:int -> unit -> unit

(** A [Shower] hit for [token]: its rows, and the tokens it announced
    (including {!Message.hop_limited} entries). Finishes the request once
    every announced token of the current wave answered. *)
val hit :
  t -> int -> from:int -> token:int -> items:Store.item list -> targets:int list -> hops:int -> unit

(** One region acked [found] keys of a [Batch] request. *)
val ack : t -> int -> found:(string * Store.item list) list -> hops:int -> unit

(** [unacked t rid] holds for the keys of batch [rid] still awaiting an
    ack. *)
val unacked : t -> int -> string -> bool
