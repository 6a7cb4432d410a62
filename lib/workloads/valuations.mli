(** Buyer-valuation generative models (§6.3).

    Three families, mirroring the paper's three experiment groups:
    - {e sampled}: valuations independent of bundle structure —
      [Uniform_val k] draws from U(1, k), [Zipf_val a] from a Zipf law;
    - {e scaled}: correlated with bundle size — [Scaled_exp k] has mean
      [|e|^k], [Scaled_normal k] is N(|e|^k, 10) truncated positive;
    - {e additive}: each item draws a price [x_j ~ D_{l_j}] with
      [D_i = U(i, i+1)] and [l_j ~ D̃] over [1..k] (uniform or
      Binomial(k, 1/2)); a bundle is worth the sum of its items —
      the "parts of the database are more valuable" model. *)

type dtilde = D_uniform | D_binomial

type model =
  | Uniform_val of float  (** k: v ~ U(1, k) *)
  | Zipf_val of float  (** a: v ~ Zipf(a), a > 1 *)
  | Scaled_exp of float  (** k: v ~ Exp(mean |e|^k) *)
  | Scaled_normal of float  (** k: v ~ N(|e|^k, sigma^2 = 10), truncated *)
  | Additive of { k : int; dtilde : dtilde }

val describe : model -> string
(** Short label for reports, e.g. ["uniform[1,100]"] or
    ["additive(k=5,D~=binomial)"]. *)

val draw :
  rng:Qp_util.Rng.t -> model -> Qp_core.Hypergraph.t -> float array
(** One valuation per hyperedge. Empty bundles get valuation 0 under
    size-dependent models ([Scaled_*] with [|e| = 0], [Additive]) and a
    regular draw under sampled models. *)

val apply :
  rng:Qp_util.Rng.t -> model -> Qp_core.Hypergraph.t -> Qp_core.Hypergraph.t
(** {!draw} + {!Qp_core.Hypergraph.with_valuations}. *)
