let default_jobs () =
  let from_env =
    match Sys.getenv_opt "QP_JOBS" with
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> Some n
        | Some _ | None -> None)
  in
  match from_env with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count () - 1)

(* Workers mark their domain so nested maps fall back to the sequential
   path instead of spawning a second generation of domains. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let resolve = function Some n -> max 1 n | None -> default_jobs ()

type pool_stats = { jobs : int; busy : float array }

type task_error = { index : int; message : string }

(* Shared core: every task runs to completion (or to its own exception —
   contained per item, never killing the pool), results and failures
   land in an index-addressed array, and the merge below is in index
   order. This is what makes both the values and the failure set
   bit-identical at any job count.

   When tracing is on, each task's events are captured into a private
   buffer — on the sequential path too, so a failing task's partial
   events are dropped identically at any job count — and the survivors
   are spliced back in index order (Qp_obs's contract). *)
let map_contained ?jobs f xs =
  let n = Array.length xs in
  let jobs = min (resolve jobs) (max 1 n) in
  let traced = Qp_obs.enabled () in
  let task i x =
    if Qp_fault.enabled () then Qp_fault.maybe_fail ~key:i "parallel.task";
    f x
  in
  let run i x =
    match
      if traced then Qp_obs.capture (fun () -> task i x)
      else (task i x, Qp_obs.empty_buf)
    with
    | r -> Ok r
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let results, stats =
    if jobs <= 1 || Domain.DLS.get in_worker then begin
      let results, busy = Timing.time (fun () -> Array.mapi run xs) in
      (results, { jobs = 1; busy = [| busy |] })
    end
    else begin
      let results = Array.make n (Error (Exit, Printexc.get_raw_backtrace ())) in
      let next = Atomic.make 0 in
      let busy = Array.make jobs 0.0 in
      (* Small chunks keep the pool busy when per-item cost is uneven
         (LPIP candidates near the top of the valuation order solve much
         smaller LPs than the bottom ones). *)
      let chunk = max 1 (n / (4 * jobs)) in
      let work w =
        let continue = ref true in
        while !continue do
          let start = Atomic.fetch_and_add next chunk in
          if start >= n then continue := false
          else begin
            let stop = min n (start + chunk) in
            let t0 = Timing.now_ns () in
            for i = start to stop - 1 do
              results.(i) <- run i xs.(i)
            done;
            busy.(w) <- busy.(w) +. Timing.seconds_since t0
          end
        done
      in
      let worker w () =
        Domain.DLS.set in_worker true;
        work w
      in
      let domains =
        Array.init (jobs - 1) (fun w -> Domain.spawn (worker (w + 1)))
      in
      (* The caller is the pool's last worker; flag it too so [f] itself
         cannot recursively fan out. *)
      Domain.DLS.set in_worker true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set in_worker false)
        (fun () -> work 0);
      Array.iter Domain.join domains;
      (results, { jobs; busy })
    end
  in
  if traced then
    Array.iter (function Ok (_, b) -> Qp_obs.splice b | Error _ -> ()) results;
  (results, stats)

let map_result_stats ?jobs f xs =
  let results, stats = map_contained ?jobs f xs in
  let failed = ref 0 in
  let results =
    Array.mapi
      (fun index -> function
        | Ok (v, _) -> Ok v
        | Error (e, _) ->
            incr failed;
            let message = Printexc.to_string e in
            Qp_obs.event "parallel.task_failed"
              ~args:(fun () ->
                [ ("index", Qp_obs.Int index); ("error", Qp_obs.Str message) ]);
            Error { index; message })
      results
  in
  if !failed > 0 then Qp_obs.counter "parallel.task_failures" !failed;
  (results, stats)

let map_result ?jobs f xs = fst (map_result_stats ?jobs f xs)

let map ?jobs f xs =
  let results, _ = map_contained ?jobs f xs in
  (* Raising interface: the lowest-index failure is re-raised (with its
     original backtrace) after the pool has fully drained — deterministic
     at any job count, unlike first-observed-wins. *)
  Array.iter (function Ok _ -> () | Error (e, bt) -> Printexc.raise_with_backtrace e bt) results;
  Array.map (function Ok (v, _) -> v | Error _ -> assert false) results

let map_list ?jobs f l = Array.to_list (map ?jobs f (Array.of_list l))

let map_reduce ?jobs ~map:f ~merge ~init xs =
  Array.fold_left merge init (map ?jobs f xs)
