(** The SSB query workload of Appendix C: the thirteen standard SSB
    flights as templates, expanded to 701 queries —
    Q1.1-Q1.3 per year (21), Q2.1-Q2.3 and Q3.1, Q4.1, Q4.2 per region
    (30), Q3.2 per nation (25), Q3.3/Q3.4 per city (500), Q4.3 per
    (region, nation) pair (125). *)

module Query = Qp_relational.Query

val workload : unit -> Query.t list
(** The 701 expanded queries, flight by flight in the order listed
    above. *)
