(** VQL recursive-descent parser.

    Grammar (keywords case-insensitive):
    {v
    query    ::= SELECT [DISTINCT] proj WHERE group (UNION group)*
                 [ORDER BY order] [LIMIT int]
    proj     ::= '*' | var (',' var)*
    group    ::= '{' (pattern | filter)* '}'
    pattern  ::= '(' term ',' term ',' term ')'
    term     ::= var | literal
    filter   ::= FILTER expr
    order    ::= SKYLINE OF var (MIN|MAX) (',' var (MIN|MAX))*
               | var [ASC|DESC] (',' var [ASC|DESC])*
    expr     ::= or-expr with comparisons, NOT, parentheses, and the
                 functions edist(a,b), contains(a,b), prefix(a,b)
    literal  ::= 'string' | int | float | TRUE | FALSE
    v}
    The WHERE group needs at least one pattern. *)

(** [parse src] parses a full VQL query. It checks syntax only: unbound
    variables, an empty UNION branch or a non-positive LIMIT parse
    fine, and the semantic analyzer ([Unistore_analysis.Semantic],
    behind [Engine.parse_checked], the gate of every string entry
    point) rejects them. The error string is positioned: line/column, the
    offending source line and a caret under the span start. *)
val parse : string -> (Ast.query, string) result

(** [parse_exn src] raises [Failure] with the same message. *)
val parse_exn : string -> Ast.query
