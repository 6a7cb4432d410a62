(** A database instance: a set of named relations, each with its
    columnar image.

    The database owns one {!Col_table} image per relation, the one the
    columnar engine reads: {!make} builds them all, and
    {!with_relation} (hence {!Delta.apply}) builds only the replaced
    relation's, every other image staying physically shared ([==])
    with the source database. A database is an immutable value that
    any number of domains may read at once; the images' lazily built
    key indexes are published race-free (see {!Col_table.keys}). *)

type t

val make : Relation.t list -> t
(** Relation names (from their schemas) must be distinct. Builds every
    relation's columnar image. *)

val relation : t -> string -> Relation.t
(** Lookup by name (case-insensitive). Raises [Not_found]. *)

val columns : t -> string -> Col_table.t
(** [columns db name] — the relation's columnar image, owned by [db]
    (case-insensitive lookup). Raises [Not_found]. *)

val relation_opt : t -> string -> Relation.t option
(** Like {!relation}, [None] instead of raising. *)

val relations : t -> Relation.t list
(** All relations, in construction order. *)

val names : t -> string list
(** Relation names as declared in their schemas. *)

val total_rows : t -> int
(** Sum of all relations' cardinalities — the number of perturbable
    tuples (support sampling picks relations proportionally to it). *)

val with_relation : t -> Relation.t -> t
(** [with_relation db r] replaces the relation with [r]'s name and
    builds [r]'s columnar image; every other relation and image is
    shared with [db]. *)
