(** XOS (fractionally subadditive) pricing (§5.2): the maximum over
    several additive pricings. The paper's XOS algorithm combines the
    LPIP and CIP pricing vectors; the price offered for a bundle is the
    higher of the two. *)

val combine : Pricing.t list -> Pricing.t
(** [combine ps] builds the XOS max over the additive components of
    [ps]. Every element must be an [Item] pricing (or an XOS whose
    components are merged in). Raises [Invalid_argument] on a uniform
    bundle component or an empty list. *)

val combine_safe : Pricing.t list -> (Pricing.t * int) option
(** Non-raising {!combine} for degraded pipelines: non-additive
    components (uniform-bundle / capped-item fallbacks) are dropped
    rather than raising, and the second component counts them. [None]
    when no additive component remains. *)

type report = {
  pricing : Pricing.t;
  lpip : Lpip.report;  (** the LPIP component's sweep health *)
  cip : Cip.report;  (** the CIP component's sweep health *)
  degraded : Degrade.marker option;
      (** set when a non-additive degraded component was dropped
          ([fallback = "additive-subset"]) or no additive component
          survived at all ([fallback = "uip"]) *)
}
(** The XOS combination with both components' health attached. *)

val synthesize :
  lpip:Pricing.t -> cip:Pricing.t -> Hypergraph.t ->
  Pricing.t * Degrade.marker option
(** [synthesize ~lpip ~cip h] is the XOS max over the two component
    pricings, with the degradation policy of {!solve_report}: a
    non-additive component is dropped ([fallback = "additive-subset"]),
    and when neither is additive the result is {!Uip.solve} [h]
    ([fallback = "uip"]). Each marker is also {!Degrade.record}ed. *)

val report_of_components :
  lpip:Lpip.report -> cip:Cip.report -> Hypergraph.t -> report
(** Combine already-computed component reports — for callers (the
    experiment runner) that reuse the LPIP/CIP results instead of
    re-solving. *)

val solve :
  ?lpip_options:Lpip.options ->
  ?cip_options:Cip.options ->
  Hypergraph.t ->
  Pricing.t
(** XOS-LPIP+CIP as in the paper's experiments. *)

val solve_report :
  ?lpip_options:Lpip.options ->
  ?cip_options:Cip.options ->
  Hypergraph.t ->
  report
(** Like {!solve} with the full health report: when a component
    degraded to a non-additive pricing it is dropped from the max (and
    when both did, the result falls back to {!Uip.solve}), each case
    recorded as a {!Degrade.marker}. *)
