(** Access paths and the cost model.

    For each logical triple-pattern scan there are several physical
    implementations (the paper's "several physical operators per logical
    operator"); this module enumerates them and predicts their cost from
    overlay characteristics (peer count, trie depth, expected latency)
    and data statistics ({!Qstats}).

    Worst-case guarantees: every access except [ABroadcast] costs
    O(depth) = O(log n) routing hops; [ARange]/[AAttrAll] add one message
    per peer intersecting the region; [ABroadcast] costs Θ(n). *)

module Value = Unistore_triple.Value
module Ast = Unistore_vql.Ast

type access =
  | AOid of string  (** O-index lookup by constant OID *)
  | AAttrValue of string * Value.t  (** A#v exact lookup *)
  | AAttrRange of string * Value.t option * Value.t option
      (** A#v range scan (open bounds use type min/max) *)
  | AAttrAll of string  (** whole-attribute region scan *)
  | AAttrPrefix of string * string  (** string-prefix scan on one attribute *)
  | AValue of Value.t  (** v-index lookup (any attribute) *)
  | ASim of string option * string * int  (** q-gram similarity selection *)
  | ASubstring of string option * string  (** q-gram substring search *)
  | ATopN of string * int
      (** the [n] smallest values of an attribute via an early-terminating
          sequential traversal of its A#v region *)
  | ABroadcast  (** flooding fallback *)

val pp_access : Format.formatter -> access -> unit

(** [access_key a] is a collision-free string identifying [a] — the
    result cache's key for the answer of this access (built on the
    unambiguous {!Unistore_triple.Value.encode}, not on {!pp_access}). *)
val access_key : access -> string

(** Overlay parameters the model is calibrated on. *)
type env = {
  peers : int;
  depth : int;  (** trie depth / log2 ring *)
  replication : int;
  expected_latency : float;  (** mean one-way ms *)
  topn_budget : bool;
      (** top-N runs as a budgeted sequential traversal
          ({!Unistore_triple.Dht.t.range_topn} present); [false] means it
          fetches the whole region and truncates at the origin (Chord) *)
}

(** [env_of_dht dht ~replication] reads the model's parameters and the
    substrate's fast-path capabilities off [dht]. *)
val env_of_dht : Unistore_triple.Dht.t -> replication:int -> env

type estimate = {
  messages : float;
  latency : float;  (** ms *)
  cardinality : float;  (** triples returned *)
}

val pp_estimate : Format.formatter -> estimate -> unit

(** [estimate_access env stats access] predicts one access path's cost. *)
val estimate_access : env -> Qstats.t -> access -> estimate

(** [probe_round_cost env ~keys ~cardinality] predicts one probe round
    over [keys] deduplicated exact keys: one region-splitting
    multi-lookup whose message count scales with touched regions, not
    keys. A bind-join round costs
    one; a q-gram access ([ASim], [ASubstring]) costs one fetch of its
    gram keys, then one more of its expected matches' A#v or V keys. *)
val probe_round_cost : env -> keys:float -> cardinality:float -> estimate

(** Scalar objective used to rank plans: messages plus a latency term
    weighted to prefer parallel strategies under wide-area latencies. *)
val objective : estimate -> float
