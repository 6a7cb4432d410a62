(** Registry of the pricing families, keyed by the paper's names: the
    six algorithms evaluated in §6 plus the capped extension. The
    experiment harness, the CLI, the market broker and the serving
    broker all resolve a family key here, so every path runs the same
    solver for the same key. *)

type spec = {
  key : string;  (** short machine name, e.g. ["lpip"] *)
  label : string;  (** the paper's display name, e.g. ["LPIP"] *)
  solve : Hypergraph.t -> Pricing.t;
  solve_report : Hypergraph.t -> Pricing.t * Degrade.marker option;
      (** like [solve], also reporting whether the algorithm degraded to
          a fallback pricing (always [None] for the purely combinatorial
          algorithms — UBP, UIP, Layering, Capped) *)
}

val all :
  ?lpip_options:Lpip.options -> ?cip_options:Cip.options -> unit -> spec list
(** UBP, UIP, LPIP, CIP, Layering, XOS-LPIP+CIP — the six algorithms of
    the paper's plots, in their legend order; what experiment cells
    sweep. *)

val registry :
  ?lpip_options:Lpip.options -> ?cip_options:Cip.options -> unit -> spec list
(** {!all} followed by Capped ({!Capped.solve} at its defaults) — every
    family a broker can price with. *)

val find : ?lpip_options:Lpip.options -> ?cip_options:Cip.options -> string -> spec
(** Lookup in {!registry} by [key] (case-insensitive). Raises
    [Not_found]. *)

val keys : string list
(** The [key]s of {!registry}, in order — for CLI completion and
    option validation. *)
