(** String similarity: edit distance and q-grams.

    UniStore's similarity operators ([edist] filters, similarity joins) are
    built on Levenshtein distance; the distributed q-gram index of
    Karnstedt et al. (NetDB'06) turns an edit-distance predicate into a
    small set of exact DHT lookups plus a count filter. *)

(** [levenshtein a b] is the (unit-cost) edit distance between [a] and
    [b]. O(|a|*|b|) time, O(min) space. *)
val levenshtein : string -> string -> int

(** [within_distance a b d] decides [levenshtein a b <= d] using a banded
    computation that exits early; much faster for small [d]. *)
val within_distance : string -> string -> int -> bool

(** [qgrams ~q s] is the list of overlapping [q]-grams of [s], extended
    with [q-1] leading ['#'] and trailing ['$'] padding characters (the
    standard positional-padding used for q-gram filtering). A gram may
    appear multiple times. *)
val qgrams : q:int -> string -> string list

(** [distinct_qgrams ~q s] is {!qgrams} deduplicated, sorted. *)
val distinct_qgrams : q:int -> string -> string list

(** [substring_qgrams ~q s] is the deduplicated list of {e unpadded}
    [q]-grams of [s] — every one of them occurs in the padded gram set of
    any string containing [s], which is what makes substring search via a
    q-gram index complete. Empty when [s] is shorter than [q]. *)
val substring_qgrams : q:int -> string -> string list

(** [contains_sub hay needle] holds when [needle] occurs in [hay] as a
    contiguous substring; the empty [needle] occurs in every string. *)
val contains_sub : string -> string -> bool

(** [count_filter_threshold ~q ~len_a ~len_b d] is the minimum number of
    common q-grams two strings of the given lengths must share to possibly
    be within edit distance [d]: [max(len_a,len_b) + q - 1 - d*q] (can be
    [<= 0], meaning the filter prunes nothing). *)
val count_filter_threshold : q:int -> len_a:int -> len_b:int -> int -> int

(** [common_gram_count ~q a b] counts common q-grams (multiset
    intersection size) of [a] and [b]. *)
val common_gram_count : q:int -> string -> string -> int

(** [passes_count_filter ~q a b d]: necessary condition for
    [levenshtein a b <= d]; used to prune candidates before the exact
    verification. *)
val passes_count_filter : q:int -> string -> string -> int -> bool

(** [prefix_grams ?freq ~q ~d pattern]: the minimal rarest-first subset
    of [pattern]'s distinct q-grams that must be probed for a complete
    edit-distance-[d] candidate set — the count-filter lower bound says a
    true match misses at most [d*q] of the pattern's gram occurrences, so
    probing distinct grams whose multiplicities sum to [d*q + 1]
    guarantees every match is indexed under at least one probed gram.
    Grams are chosen rarest first: by [freq] when given (e.g. gossiped
    posting sizes), else by a padding heuristic (interior grams before
    padding-anchored ones). Returns all distinct grams when the bound is
    not reachable (the caller should then fall back to scanning). *)
val prefix_grams : ?freq:(string -> int) -> q:int -> d:int -> string -> string list
