(** Scaled-down Star Schema Benchmark generator (Appendix C): a
    lineorder fact table with date, customer, supplier and part
    dimensions. Domains follow SSB: 5 regions, 25 nations, 250 cities
    (nation prefix + digit), categories [MFGR#xy] and brands
    [MFGR#xyNN], years 1992-1998. *)

module Database = Qp_relational.Database

type config = {
  customers : int;  (** >= 250 recommended so every city is populated *)
  suppliers : int;
  parts : int;
  lineorders : int;
}

val default_config : config
(** 500 customers, 100 suppliers, 200 parts, 6000 lineorders, one date
    row per week over 1992-1998 (364 rows). *)

val tiny_config : config
(** 60 customers, 15 suppliers, 30 parts, 250 lineorders — for fast
    unit tests (the date dimension is the same). *)

val generate : rng:Qp_util.Rng.t -> ?config:config -> unit -> Database.t
(** The five SSB tables ([date], [customer], [supplier], [part],
    [lineorder]) at [config] (default {!default_config}); deterministic
    in [rng]. *)

val regions : string array
(** The 5 SSB regions (the TPC-H ones, {!Tpch.regions}). *)

val nations : (string * string) array
(** The 25 [(nation, region)] pairs (the TPC-H ones, {!Tpch.nations}). *)

val cities : string array
(** All 250 SSB cities. *)

val categories : string array
(** The 25 [MFGR#xy] category strings. *)

val years : int list
(** 1992-1998. *)
