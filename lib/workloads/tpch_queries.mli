(** The TPC-H query workload of Appendix C: templates Q1, Q2, Q4, Q6,
    Q12, Q16, Q17 expanded to 220 queries — Q1/Q4/Q6/Q12 per year
    (5 each), Q2 per region and per metal (5 + 5), Q16 per p_type (150),
    Q17 per p_container (40).

    The templates follow the TPC-H text modulo the constructs the
    relational substrate omits (no CASE, no correlated subqueries; the
    affected templates keep their joins, predicates and group-bys, which
    is what determines the conflict-set structure). *)

module Query = Qp_relational.Query

val workload : unit -> Query.t list
(** All 220 queries. Independent of the generated instance — templates
    reference only fixed TPC-H domains. *)
