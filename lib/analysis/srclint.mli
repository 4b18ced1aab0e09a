(** A source-level determinism and protocol-exhaustiveness linter over
    the repo's own OCaml tree, built on compiler-libs (the compiler's
    parser plus [Ast_iterator] — no ppx, no typing).

    The simulator's correctness story rests on a determinism contract:
    same seed, byte-identical trace (DESIGN.md, "The determinism
    contract"). [Tracelint] checks it dynamically, after the fact, at a
    handful of sizes; this linter checks its source-level preconditions
    at build time, the way a race detector would in a systems stack.

    Rules (each toggleable, each suppressible per line with
    [(* srclint: allow <rule> *)]):

    - [unordered-iteration]: a [Hashtbl.fold]/[iter] whose result
      escapes without a [List.sort]/[Det.sorted_*]-style normalization —
      hash-bucket order leaking into protocol behavior.
    - [ambient-effects]: any [Random.*], [Sys.time], [Unix.gettimeofday]
      etc. outside [lib/util/rng.ml]; all randomness must flow from the
      seeded split-RNG and all time from the simulated clock.
    - [polymorphic-compare]: structural [=]/[compare] at positions that
      are syntactically [float]- or [Bitkey.t]-typed, where the
      dedicated comparator exists ([Float.equal], [Bitkey.compare], …).
    - [protocol-exhaustiveness]: cross-checks the static {!Protocol}
      table against the sources — constructors vs. [size]/[kind]/
      [dispatch] arms (no wildcard hiding), kind-string agreement, and
      retry/timeout registration of every request kind.
    - [blocking-wait]: [Sim.await], [Sim.run_until], [Sim.run_all] or
      [Sim.run_for] outside [lib/sim]. Every layer below the facade is
      continuation-passing; the few legitimate callers (the facade, the
      overlay's join and construction, the traffic engine) carry an
      allow annotation.
    - [uncancelled-timeout]: a [Sim.schedule] whose delay mentions
      [timeout_ms], outside [lib/sim]. A deadline that the operation it
      guards can beat belongs on [Sim.timer], cancelled when the
      operation finishes, so the queue holds no dead timers.
    - [oracle]: a path through an [Oracle] module (the simulator's global
      view) outside [lib/sim], [lib/analysis], [lib/core], [bin] and
      [module Oracle] bodies; the annotation names the read's owner. *)

type rule =
  | Unordered_iteration
  | Ambient_effects
  | Polymorphic_compare
  | Protocol_exhaustiveness
  | Blocking_wait
  | Uncancelled_timeout
  | Oracle

val all_rules : rule list

val rule_name : rule -> string
(** ["unordered-iteration"], ["ambient-effects"], ["polymorphic-compare"],
    ["protocol-exhaustiveness"], ["blocking-wait"], ["uncancelled-timeout"],
    ["oracle"] — also the diagnostic codes. *)

val rule_of_name : string -> rule option

val lint_source : ?rules:rule list -> path:string -> string -> Diagnostic.t list
(** [lint_source ~path src] runs the per-file rules over one
    implementation source. [path] is used for exemptions (the RNG module
    is exempt from [ambient-effects]) and messages; suppression comments
    in [src] are honored. A file that does not parse yields a single
    [parse-error] diagnostic. *)

type protocol_spec = {
  proto_name : string;
  table : Protocol.entry list;
  type_name : string;  (** the variant type, e.g. ["t"] or ["msg"] *)
  size_fn : string;
  kind_fn : string;
  dispatch_fn : string;
}

val pgrid_spec : protocol_spec
val chord_spec : protocol_spec

val check_protocol :
  spec:protocol_spec ->
  decl:string * Parsetree.structure ->
  handlers:(string * Parsetree.structure) list ->
  (string * Diagnostic.t) list
(** [check_protocol ~spec ~decl ~handlers] runs the cross-file protocol
    checks: [decl] is the (path, AST) of the message-type file, and
    [handlers] the files holding [dispatch] and the pending-table
    registrations. Returns [(path, diagnostic)] pairs. *)

type report = { path : string; src : string; diags : Diagnostic.t list }

val lint_paths : ?rules:rule list -> string list -> report list
(** [lint_paths paths] lints every [*.ml] under the given files or
    directories (recursively; [_build] and dotdirs skipped) with the
    per-file rules, plus the protocol cross-checks whenever the scanned
    set contains the pgrid ([lib/pgrid/message.ml] + [overlay.ml]) or
    chord ([lib/chord/chord.ml]) sources. One report per file, in
    path order; suppressions applied. *)

val errors : report list -> int
val has_errors : report list -> bool

val render_reports : report list -> string
(** Rustc-style rendering: per-file diagnostics with source line and
    caret, then a one-line summary. *)
