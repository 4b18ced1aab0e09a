(** Per-peer request-latency estimation feeding adaptive retry deadlines.

    Jacobson/Karels-style: an EWMA of the mean plus an EWMA of the mean
    deviation. Each node keeps one tracker and observes the end-to-end
    latency of every completed operation, keyed three ways: by
    responding peer, by operation class ("lookup", "insert", "range",
    ...) and globally. A deadline uses the sharpest warm estimate,
    falling back peer → class → global → the configured fixed timeout,
    so a cold tracker behaves exactly like fixed-timeout code.

    Only successful completions should be observed (Karn's algorithm):
    samples from retried exchanges are ambiguous. *)

type t

val create : unit -> t

(** [observe t ?peer ~cls sample] folds one completed-operation latency
    (simulated ms) into the peer (when given), class and global
    estimates. Negative samples are ignored. *)
val observe : t -> ?peer:int -> cls:string -> float -> unit

(** [forget_peer t peer] drops the per-peer estimate for [peer]. *)
val forget_peer : t -> int -> unit

(** Samples an estimate needs before it predicts a deadline. *)
val min_samples : int

(** [deadline t ?peer ~cls ~fallback ~min_ms ~max_ms ()] is the adaptive
    retry deadline: [(mean + 4 dev) * 2] of the sharpest estimate with
    at least {!min_samples} samples, clamped into [[min_ms, max_ms]], or
    [fallback] when no estimate is warm. *)
val deadline :
  t -> ?peer:int -> cls:string -> fallback:float -> min_ms:float -> max_ms:float -> unit -> float

(** Samples folded into the global estimate. *)
val samples : t -> int

(** The global EWMA mean; [nan] before the first sample. *)
val mean : t -> float
