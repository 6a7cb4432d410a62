(** Index of every reproduced table and figure, keyed by the paper's
    numbering — the list [qpricing experiment] runs and [qpricing list]
    prints. *)

type entry = {
  id : string;  (** e.g. ["fig5"], ["table4"], ["lemmas"] *)
  title : string;
  run : Format.formatter -> Context.t -> unit;
}

val all : entry list
(** In the paper's order: table3, fig4, fig5-fig7, fig8, table4-table6,
    then the appendix lemmas, the extension/ablation studies, and the
    §7.2 extensions (online learning, unique-item support). *)

val find : string -> entry option
(** Lookup by [id]; [None] for unknown ids (callers print {!ids}). *)

val ids : string list
(** The [id]s of {!all}, in order — for CLI validation and "unknown
    id" messages. *)
