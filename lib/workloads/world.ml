module Database = Qp_relational.Database
module Relation = Qp_relational.Relation
module Schema = Qp_relational.Schema
module Value = Qp_relational.Value
module Rng = Qp_util.Rng

type config = {
  countries : int;
  cities_per_country : int;
  languages_per_country : int;
}

let default_config =
  { countries = 280; cities_per_country = 6; languages_per_country = 3 }

let tiny_config =
  { countries = 30; cities_per_country = 3; languages_per_country = 2 }

let continents =
  [| "Asia"; "Europe"; "North America"; "South America"; "Africa"; "Oceania";
     "Antarctica" |]

(* Region -> continent, including the Caribbean the templates filter on. *)
let regions =
  [|
    ("Eastern Asia", "Asia"); ("Southern Asia", "Asia"); ("Middle East", "Asia");
    ("Southeast Asia", "Asia"); ("Western Europe", "Europe");
    ("Eastern Europe", "Europe"); ("Southern Europe", "Europe");
    ("Nordic Countries", "Europe"); ("Caribbean", "North America");
    ("Central America", "North America"); ("North America", "North America");
    ("South America", "South America"); ("Eastern Africa", "Africa");
    ("Western Africa", "Africa"); ("Northern Africa", "Africa");
    ("Southern Africa", "Africa"); ("Melanesia", "Oceania");
    ("Polynesia", "Oceania"); ("Australia and New Zealand", "Oceania");
    ("Antarctica", "Antarctica");
  |]

let language_pool =
  [|
    "English"; "Spanish"; "Greek"; "French"; "German"; "Portuguese"; "Arabic";
    "Mandarin"; "Hindi"; "Bengali"; "Russian"; "Japanese"; "Korean"; "Italian";
    "Dutch"; "Turkish"; "Polish"; "Swedish"; "Norwegian"; "Finnish"; "Danish";
    "Czech"; "Hungarian"; "Romanian"; "Bulgarian"; "Serbian"; "Croatian";
    "Swahili"; "Amharic"; "Yoruba"; "Zulu"; "Thai"; "Vietnamese"; "Malay";
    "Tagalog"; "Urdu"; "Persian"; "Hebrew"; "Ukrainian"; "Catalan"; "Quechua";
    "Guarani"; "Maori"; "Samoan"; "Fijian"; "Icelandic"; "Estonian"; "Latvian";
    "Lithuanian"; "Albanian";
  |]

let government_forms =
  [| "Republic"; "Constitutional Monarchy"; "Federal Republic"; "Monarchy";
     "Federation"; "Parliamentary Democracy"; "Socialist Republic";
     "Territory" |]

let syllables =
  [| "ba"; "ce"; "da"; "fo"; "ga"; "hi"; "ka"; "la"; "mo"; "na"; "pa"; "qu";
     "ra"; "sa"; "ta"; "ve"; "wi"; "xa"; "ya"; "zo"; "lan"; "mar"; "nor";
     "sta"; "tun"; "gal" |]

let fresh_name rng used =
  let rec attempt () =
    let parts = 2 + Rng.int rng 3 in
    let buf = Buffer.create 12 in
    for _ = 1 to parts do
      Buffer.add_string buf (Rng.pick rng syllables)
    done;
    let s = Buffer.contents buf in
    let name = String.capitalize_ascii s in
    if Hashtbl.mem used name then attempt ()
    else begin
      Hashtbl.replace used name ();
      name
    end
  in
  attempt ()

let code_of_name used name =
  let up = String.uppercase_ascii name in
  let base =
    if String.length up >= 3 then String.sub up 0 3
    else
      (* Short names are padded with a digit encoding the name length,
         not a literal letter: an "XXX" suffix made distinct short names
         collide ("A" and "AX" both gave "AXX", leaving one of them an
         arbitrary disambiguated code), while a digit pad is injective
         on short names and can never equal any 3-letter prefix of a
         longer name. *)
      let n = String.length up in
      up ^ String.make (3 - n) (Char.chr (Char.code '0' + n))
  in
  let letter k = Char.chr (65 + (k mod 26)) in
  let rec disambiguate i =
    let code =
      if i = 0 then base
      else if i <= 26 then String.sub base 0 2 ^ String.make 1 (letter i)
      else if i < 27 + 676 then
        (* the third letter has cycled: step the second one too, so the
           search ends once every code under the first letter is tried *)
        String.init 3 (function
          | 0 -> base.[0]
          | 1 -> letter ((i - 27) / 26)
          | _ -> letter (i - 27))
      else invalid_arg ("World.code_of_name: no free code for " ^ name)
    in
    if Hashtbl.mem used code then disambiguate (i + 1)
    else begin
      Hashtbl.replace used code ();
      code
    end
  in
  disambiguate 0

let log_uniform rng lo hi =
  let l = log (Float.of_int lo) and h = log (Float.of_int hi) in
  int_of_float (exp (l +. Rng.float rng (h -. l)))

let country_schema =
  Schema.make ~name:"Country"
    ~attrs:
      [
        ("Code", Schema.T_string); ("Name", Schema.T_string);
        ("Continent", Schema.T_string); ("Region", Schema.T_string);
        ("SurfaceArea", Schema.T_int); ("Population", Schema.T_int);
        ("LifeExpectancy", Schema.T_int); ("GovernmentForm", Schema.T_string);
        ("Capital", Schema.T_int);
      ]

let city_schema =
  Schema.make ~name:"City"
    ~attrs:
      [
        ("ID", Schema.T_int); ("Name", Schema.T_string);
        ("CountryCode", Schema.T_string); ("District", Schema.T_string);
        ("Population", Schema.T_int);
      ]

let language_schema =
  Schema.make ~name:"CountryLanguage"
    ~attrs:
      [
        ("CountryCode", Schema.T_string); ("Language", Schema.T_string);
        ("IsOfficial", Schema.T_string); ("Percentage", Schema.T_int);
      ]

type proto_country = {
  code : string;
  cname : string;
  region_ix : int;
  pinned_languages : string list;
}

let generate ~rng ?(config = default_config) () =
  assert (config.countries >= 8);
  let rng_country = Rng.split rng "country"
  and rng_city = Rng.split rng "city"
  and rng_lang = Rng.split rng "lang" in
  let used_names = Hashtbl.create 512 and used_codes = Hashtbl.create 512 in
  List.iter (fun n -> Hashtbl.replace used_names n ()) [ "United States"; "Greece" ];
  List.iter (fun c -> Hashtbl.replace used_codes c ()) [ "USA"; "GRC" ];
  let caribbean_ix =
    let found = ref 0 in
    Array.iteri (fun i (r, _) -> if r = "Caribbean" then found := i) regions;
    !found
  in
  let protos =
    (* Two pinned countries, then synthetic ones; a couple forced into
       the Caribbean so the region filters of Q13/Q14 select rows. *)
    { code = "USA"; cname = "United States"; region_ix = 10;
      pinned_languages = [ "English"; "Spanish" ] }
    :: { code = "GRC"; cname = "Greece"; region_ix = 6;
         pinned_languages = [ "Greek"; "English" ] }
    :: List.init (config.countries - 2) (fun i ->
           let cname = fresh_name rng_country used_names in
           let code = code_of_name used_codes cname in
           let region_ix =
             if i < 4 then caribbean_ix
             else Rng.int rng_country (Array.length regions)
           in
           { code; cname; region_ix; pinned_languages = [] })
  in
  let city_rows = ref [] and lang_rows = ref [] and country_rows = ref [] in
  let next_city_id = ref 1 in
  List.iter
    (fun proto ->
      let region, continent = regions.(proto.region_ix) in
      let n_cities = 1 + Rng.int rng_city (2 * config.cities_per_country) in
      let capital = !next_city_id in
      for _ = 1 to n_cities do
        let id = !next_city_id in
        incr next_city_id;
        city_rows :=
          [|
            Value.Int id;
            Value.Str (fresh_name rng_city used_names);
            Value.Str proto.code;
            Value.Str (fresh_name rng_city used_names);
            Value.Int (log_uniform rng_city 1_000 10_000_000);
          |]
          :: !city_rows
      done;
      let n_langs =
        max
          (List.length proto.pinned_languages)
          (1 + Rng.int rng_lang (2 * config.languages_per_country))
      in
      let chosen = Hashtbl.create 8 in
      List.iter (fun l -> Hashtbl.replace chosen l ()) proto.pinned_languages;
      let langs = ref (List.rev proto.pinned_languages) in
      while List.length !langs < n_langs do
        let l = Rng.pick rng_lang language_pool in
        if not (Hashtbl.mem chosen l) then begin
          Hashtbl.replace chosen l ();
          langs := l :: !langs
        end
      done;
      let langs = List.rev !langs in
      let remaining = ref 100 in
      List.iteri
        (fun i l ->
          let is_official = if i = 0 then "T" else "F" in
          let pct =
            if i = 0 then 50 + Rng.int rng_lang 41
            else min !remaining (Rng.int rng_lang (max 1 !remaining))
          in
          remaining := max 0 (!remaining - pct);
          lang_rows :=
            [|
              Value.Str proto.code; Value.Str l; Value.Str is_official;
              Value.Int pct;
            |]
            :: !lang_rows)
        langs;
      country_rows :=
        [|
          Value.Str proto.code;
          Value.Str proto.cname;
          Value.Str continent;
          Value.Str region;
          Value.Int (log_uniform rng_country 1_000 17_000_000);
          Value.Int (log_uniform rng_country 10_000 1_400_000_000);
          Value.Int (40 + Rng.int rng_country 46);
          Value.Str (Rng.pick rng_country government_forms);
          Value.Int capital;
        |]
        :: !country_rows)
    protos;
  Database.make
    [
      Relation.make country_schema (List.rev !country_rows);
      Relation.make city_schema (List.rev !city_rows);
      Relation.make language_schema (List.rev !lang_rows);
    ]

let distinct_strings rel col =
  let r = rel in
  let seen = Hashtbl.create 64 and out = ref [] in
  Array.iter
    (fun tup ->
      match tup.(col) with
      | Value.Str s when not (Hashtbl.mem seen s) ->
          Hashtbl.replace seen s ();
          out := s :: !out
      | _ -> ())
    (Relation.tuples r);
  List.rev !out

let country_codes db =
  let r = Database.relation db "Country" in
  distinct_strings r (Schema.index_of (Relation.schema r) "Code")

let language_names db =
  let r = Database.relation db "CountryLanguage" in
  distinct_strings r (Schema.index_of (Relation.schema r) "Language")
