(** Synthetic generator for the [world] dataset (§6.2): three tables —
    Country, City, CountryLanguage — shaped like the MySQL sample
    database the paper uses, at a configurable scale.

    Generation is deterministic in the seed. A handful of rows are
    pinned so that the constants appearing in the paper's query
    templates (Table 7) always hit data: country codes [USA] and [GRC],
    region [Caribbean], languages [English]/[Greek]/[Spanish] (English
    at >= 50% for the USA). *)

module Database = Qp_relational.Database

type config = {
  countries : int;  (** >= 8 *)
  cities_per_country : int;  (** mean; actual counts vary per country *)
  languages_per_country : int;  (** mean *)
}

val default_config : config
(** 280 countries, ~6 cities and ~3 languages per country — roughly
    5000 tuples, matching the paper's description of the dataset. *)

val tiny_config : config
(** 30 countries — for fast unit tests. *)

val generate : rng:Qp_util.Rng.t -> ?config:config -> unit -> Database.t
(** Country, City and CountryLanguage at [config] (default
    {!default_config}), with the pinned rows above; deterministic in
    [rng]. Requires [countries >= 8]. *)

val continents : string array
(** The 7 values of [Country.Continent] (each region maps to one); the
    query templates range over them. *)

val country_codes : Database.t -> string list
(** Distinct [Country.Code] values, in first-occurrence order — an
    active domain used to expand the query templates. *)

val language_names : Database.t -> string list
(** Distinct [CountryLanguage.Language] values, in first-occurrence
    order — likewise. *)

val code_of_name : (string, unit) Hashtbl.t -> string -> string
(** 3-character country code for a name, unique against (and recorded
    in) [used]. Longer names take their uppercased 3-letter prefix,
    short names are padded with a digit encoding their length (["A"] →
    ["A11"], ["AX"] → ["AX2"]) so distinct short names never share a
    base; remaining clashes rotate the final character, then the middle
    one too. Raises [Invalid_argument] when every code sharing the
    name's first character is taken. Exposed for the regression
    tests. *)
