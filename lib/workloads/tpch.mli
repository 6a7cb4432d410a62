(** Scaled-down TPC-H data generator (Appendix C).

    The eight-table TPC-H schema with the columns the paper's seven
    query templates touch. Money is stored in integer cents and dates as
    integers [YYYYMMDD], keeping all query answers exact (see
    {!Qp_relational.Value}). The paper runs scale factor 1 (~10M rows);
    the default configuration here generates a few thousand rows so the
    whole pipeline — support sampling, conflict sets, pricing — runs in
    seconds while preserving the workload's structure (Appendix C
    parameterizes predicates, not data volume). *)

module Database = Qp_relational.Database

type config = {
  suppliers : int;
  parts : int;
  customers : int;
  orders : int;
  mean_lineitems_per_order : int;
  partsupp_per_part : int;
}

val default_config : config
(** 20 suppliers, 200 parts, 100 customers, 600 orders (~1800
    lineitems), 4 partsupp rows per part. *)

val tiny_config : config
(** 5 suppliers, 30 parts, 20 customers, 60 orders (~120 lineitems),
    2 partsupp rows per part — for fast unit tests. *)

val generate : rng:Qp_util.Rng.t -> ?config:config -> unit -> Database.t
(** The eight TPC-H tables at [config] (default {!default_config});
    deterministic in [rng]. *)

val regions : string array
(** The 5 TPC-H region names. *)

val nations : (string * string) array
(** [(nation, region)] pairs. *)

val part_types : string array
(** The 150 TPC-H [p_type] strings. *)

val containers : string array
(** The 40 TPC-H [p_container] strings. *)

val date : year:int -> month:int -> day:int -> int
(** The integer [YYYYMMDD] encoding dates are stored in. *)
