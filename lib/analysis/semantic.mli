(** VQL semantic analyzer.

    Runs over the parsed AST before the query processor executes a plan
    and reports {!Diagnostic.t}s:

    - unbound variables in projection, filters, ORDER BY / SKYLINE
      (code ["unbound-var"], error), a query or UNION branch without
      triple patterns (["no-patterns"], error), an empty projection
      (["empty-projection"], error) and variables bound once and never
      used (["unused-var"], warning);
    - type inference against a {!Catalog}: every variable accumulates
      type evidence from the patterns that bind it (via the attribute's
      observed value types), from comparisons with constants and from
      string functions ([edist]/[contains]/[prefix] force string); an
      empty intersection is a clash (["type-clash"], error). Querying an
      attribute absent from the catalog is ["unknown-attr"] (warning);
    - unsatisfiable predicates over the filter conjuncts
      ({!Unistore_vql.Algebra.var_constraints}): contradictory range
      bounds, conflicting equalities, impossible edit-distance
      thresholds, prefix/contains tests refuted by an equality
      (["unsat-filter"], error);
    - join-graph connectivity: patterns that share no variable (directly
      or transitively, filters count as edges) form a Cartesian product
      (["cartesian-product"], warning; all-constant existence tests are
      exempt);
    - LIMIT/ORDER interplay: non-positive LIMIT (["bad-limit"], error),
      duplicate ordering/skyline dimensions (["duplicate-dim"],
      warning), LIMIT without any ordering (["nondeterministic-limit"],
      info).

    Severity policy: [Error] marks queries that cannot produce sensible
    results; the engine refuses those. [Warning]/[Info] are advisory. *)

module Ast = Unistore_vql.Ast

(** [analyze ?catalog q] returns the diagnostics for [q], sorted.
    Without a catalog (or with {!Catalog.empty}) the type checks are
    skipped; everything else still runs. *)
val analyze : ?catalog:Catalog.t -> Ast.query -> Diagnostic.t list

(** [analyze_string ?catalog src] parses [src] and analyzes it.
    [Error] carries a positioned parse error. *)
val analyze_string : ?catalog:Catalog.t -> string -> (Ast.query * Diagnostic.t list, string) result
