(** A parser for the SQL fragment the engine evaluates — single
    [SELECT] blocks with [DISTINCT], multi-table [FROM] with aliases,
    [WHERE] (comparisons, [BETWEEN], [IN], [LIKE], boolean connectives,
    integer arithmetic), [GROUP BY] and [LIMIT]. This is the dialect of
    the paper's workload queries (Table 7 and Appendix C), so pasted
    paper queries parse as written.

    [SELECT *] is expanded against the database's schemas (that is why
    parsing takes the database). Identifiers are case-insensitive;
    keywords may be written in any case; string literals use single
    quotes with ['']-escaping. *)

val parse :
  ?name:string ->
  db:Database.t ->
  string ->
  (Query.t, string) Stdlib.result
(** [parse ~db sql] returns the query or a message pinpointing the
    first offending token. The query is also compiled
    ({!Eval.prepare}), so an unresolved column or an ill-typed
    aggregate is an [Error] too. The query [name] defaults to the SQL text
    itself (truncated). *)

val parse_exn : ?name:string -> db:Database.t -> string -> Query.t
(** Like {!parse}; raises [Invalid_argument] with the error message. *)
