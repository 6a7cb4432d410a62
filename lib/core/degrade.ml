type marker = {
  algorithm : string;
  fallback : string;
  reason : string;
}

let make ~algorithm ~fallback ~reason = { algorithm; fallback; reason }

let describe m =
  Printf.sprintf "%s degraded to %s: %s" m.algorithm m.fallback m.reason

let record m =
  Qp_obs.counter ("degraded." ^ m.algorithm) 1;
  Qp_obs.event "degraded"
    ~args:(fun () ->
      [
        ("algorithm", Qp_obs.Str m.algorithm);
        ("fallback", Qp_obs.Str m.fallback);
        ("reason", Qp_obs.Str m.reason);
      ]);
  m

(* Aggregate a sweep's LP failures into stable (tag, count) pairs for
   structured reports — sorted by tag so the rendering is deterministic
   regardless of the order failures were observed in. *)
let tally_failures errors =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let tag = Qp_lp.Lp.error_tag e in
      Hashtbl.replace tbl tag (1 + Option.value (Hashtbl.find_opt tbl tag) ~default:0))
    errors;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_tally tally =
  String.concat ", "
    (List.map (fun (tag, n) -> Printf.sprintf "%s x%d" tag n) tally)
