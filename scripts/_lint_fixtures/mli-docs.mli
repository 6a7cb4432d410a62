(** Lint fixture, never built: the mli-docs rule must flag [undocumented]
    below, after a doc comment that quotes the token "(*". *)

val documented : int
(** Documented. *)

val undocumented : int
