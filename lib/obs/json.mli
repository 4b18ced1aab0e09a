(** Structured JSON values: encoder + minimal decoder.

    The paper's platform makes results "traceable, analyzable and (in
    limits) repeatable" (§3); analyzable means machine-readable. This is
    the export format of the observability layer — {!Metrics.to_json},
    {!Profile.to_json} and the benchmark's [--json] output all produce
    values of this type. Implemented from scratch (no external
    dependency): an encoder that always emits valid JSON (non-finite
    floats become [null]) and a small recursive-descent decoder used for
    round-trip tests and ad-hoc tooling.

    Invariant: for any value [v] built without non-finite floats,
    [of_string (to_string v) = Ok v]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** insertion order is preserved *)

(** [to_string v] renders [v]. Default is indented (2 spaces, suitable
    for committed baseline files and diffs); [~minify:true] emits the
    compact wire form. NaN and infinities encode as [null]. *)
val to_string : ?minify:bool -> t -> string

val pp : Format.formatter -> t -> unit

(** [of_string s] parses one JSON document. Rejects trailing garbage.
    Numbers without [.]/[e] parse as [Int], everything else as [Float]. *)
val of_string : string -> (t, string) result

(** [member k v] is the value of key [k] if [v] is an [Obj] containing
    it. *)
val member : string -> t -> t option
