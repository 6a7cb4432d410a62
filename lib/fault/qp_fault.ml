(* Deterministic, seeded fault injection for the pricing pipeline.

   Determinism discipline: whether a site fires is a pure function of
   (spec seed, site name, caller-supplied key, attempt) — never of a
   global counter or of wall-clock time. Parallel sweeps hand each task
   a deterministic key (the task index, the pivot count, ...), so the
   exact same faults fire at any QP_JOBS, and a retry (attempt + 1)
   re-draws instead of hitting the same fault forever.

   Cost discipline: the same one-atomic-load contract as Qp_obs — while
   no spec is armed, [check]/[maybe_fail] are a single atomic load. *)

type kind = Fail | Nan | Stall

exception Injected of string

let kind_name = function Fail -> "fail" | Nan -> "nan" | Stall -> "stall"

let kind_of_name = function
  | "fail" -> Some Fail
  | "nan" -> Some Nan
  | "stall" -> Some Stall
  | _ -> None

type spec = {
  site : string;
  kind : kind;
  p : float;
  nth : int option;
  seed : int;
}

(* The site taxonomy: each check point's name and a one-line
   description of it and its key. Specs naming any other site fail to
   parse. *)
let known_sites =
  [
    ("simplex.pivot", "one check per simplex pivot; key = pivot count");
    ("parallel.task", "one check per worker-pool task; key = task index");
    ("conflict.query", "one check per conflict-set query; key = query index");
    ("runner.cell", "one check per benchmark cell; key = cell fingerprint");
    ( "serve.request",
      "one check per broker request; key = query index (PRICE), SQL-text \
       hash (QUOTE), 0 otherwise" );
    ("serve.parse", "one check per received protocol line; key = line hash");
    ( "serve.io",
      "one check per connection read/write event; key = bytes transferred \
       (fires as a connection reset)" );
    ( "serve.snapshot.write",
      "one check per snapshot checkpoint write; key = hash of the file path" );
    ( "serve.snapshot.read",
      "one check per snapshot load attempt; key = hash of the file path" );
  ]

let describe s =
  Printf.sprintf "%s:%s:p=%g%s:seed=%d" s.site (kind_name s.kind) s.p
    (match s.nth with None -> "" | Some n -> Printf.sprintf ":nth=%d" n)
    s.seed

(* --- registry -------------------------------------------------------- *)

let armed = Atomic.make false
let registry : spec list Atomic.t = Atomic.make []

(* Injections actually fired, per site — kept here (not only in Qp_obs)
   so bench metadata can report them even when tracing is off. *)
let fired_tbl : (string, int) Hashtbl.t = Hashtbl.create 8
let fired_mu = Mutex.create ()

let enabled () = Atomic.get armed
let specs () = Atomic.get registry

let install specs =
  Atomic.set registry specs;
  Mutex.lock fired_mu;
  Hashtbl.reset fired_tbl;
  Mutex.unlock fired_mu;
  Atomic.set armed (specs <> [])

let clear () = install []

let injections () =
  Mutex.lock fired_mu;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) fired_tbl [] in
  Mutex.unlock fired_mu;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* --- spec grammar ---------------------------------------------------- *)

(* SITE:KIND[:p=F][:nth=N][:seed=N]; several specs separated by commas.
   Unknown sites and kinds are errors (listing the taxonomy), so a typo
   in QP_FAULTS fails fast instead of silently injecting nothing. *)
let parse_one str =
  match String.split_on_char ':' (String.trim str) with
  | site :: kind :: opts when site <> "" ->
      if not (List.mem_assoc site known_sites) then
        Error
          (Printf.sprintf "unknown fault site %S (known: %s)" site
             (String.concat ", " (List.map fst known_sites)))
      else begin
        match kind_of_name kind with
        | None ->
            Error
              (Printf.sprintf "unknown fault kind %S (known: fail, nan, stall)"
                 kind)
        | Some kind ->
            let init = { site; kind; p = 1.0; nth = None; seed = 0 } in
            List.fold_left
              (fun acc opt ->
                match acc with
                | Error _ -> acc
                | Ok s -> (
                    match String.index_opt opt '=' with
                    | None ->
                        Error (Printf.sprintf "malformed option %S (want k=v)" opt)
                    | Some i -> (
                        let k = String.sub opt 0 i in
                        let v =
                          String.sub opt (i + 1) (String.length opt - i - 1)
                        in
                        match (k, float_of_string_opt v, int_of_string_opt v) with
                        | "p", Some p, _ when p >= 0.0 && p <= 1.0 ->
                            Ok { s with p }
                        | "nth", _, Some n when n >= 1 -> Ok { s with nth = Some n }
                        | "seed", _, Some seed -> Ok { s with seed }
                        | ("p" | "nth" | "seed"), _, _ ->
                            Error (Printf.sprintf "bad value in %S" opt)
                        | _ ->
                            Error
                              (Printf.sprintf
                                 "unknown option %S (want p=, nth= or seed=)" opt))))
              (Ok init) opts
      end
  | _ -> Error (Printf.sprintf "malformed fault spec %S (want SITE:KIND[:opts])" str)

let parse str =
  let parts =
    String.split_on_char ',' str
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  List.fold_left
    (fun acc part ->
      match (acc, parse_one part) with
      | Error _, _ -> acc
      | _, Error msg -> Error msg
      | Ok specs, Ok s -> Ok (specs @ [ s ]))
    (Ok []) parts

let configure str =
  match parse str with
  | Error _ as e -> e
  | Ok new_specs ->
      Atomic.set registry (Atomic.get registry @ new_specs);
      if Atomic.get registry <> [] then Atomic.set armed true;
      Ok ()

(* --- the decision function ------------------------------------------- *)

(* FNV-1a: a stable string hash (Hashtbl.hash would do today, but its
   output is not a documented contract across compiler versions, and
   fault schedules must replay across builds). 64-bit arithmetic runs
   on Int64 because the constants do not fit OCaml's 63-bit int. *)
let fnv1a s =
  let open Int64 in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := logxor !h (of_int (Char.code c));
      h := mul !h 0x100000001b3L)
    s;
  !h

let site_key s = Int64.to_int (fnv1a s) land max_int

(* splitmix64: seed/site/key/attempt in, one uniform draw out. *)
let splitmix z =
  let open Int64 in
  let z = add z 0x9e3779b97f4a7c15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let draw ~seed ~site ~key ~attempt =
  let open Int64 in
  let z =
    splitmix
      (logxor
         (splitmix (logxor (splitmix (logxor (of_int seed) (fnv1a site))) (of_int key)))
         (of_int attempt))
  in
  Float.of_int (to_int (logand z 0x1FFFFFFFFFFFFFL)) /. Float.of_int (1 lsl 53)

let record_fired site kind ~key ~attempt =
  Mutex.lock fired_mu;
  Hashtbl.replace fired_tbl site
    (1 + Option.value (Hashtbl.find_opt fired_tbl site) ~default:0);
  Mutex.unlock fired_mu;
  Qp_obs.counter ("fault.injected." ^ site) 1;
  Qp_obs.event "fault.injected"
    ~args:(fun () ->
      [
        ("site", Qp_obs.Str site);
        ("kind", Qp_obs.Str (kind_name kind));
        ("key", Qp_obs.Int key);
        ("attempt", Qp_obs.Int attempt);
      ])

let check ?(attempt = 0) ~key site =
  if not (Atomic.get armed) then None
  else begin
    let fire s =
      s.site = site
      && (match s.nth with None -> true | Some n -> key mod n = 0)
      && (s.p >= 1.0 || draw ~seed:s.seed ~site ~key ~attempt < s.p)
    in
    match List.find_opt fire (Atomic.get registry) with
    | None -> None
    | Some s ->
        record_fired site s.kind ~key ~attempt;
        Some s.kind
  end

let maybe_fail ?attempt ~key site =
  if Atomic.get armed then
    match check ?attempt ~key site with
    | None -> ()
    | Some _ -> raise (Injected site)

(* Arm from the environment at load time, so QP_FAULTS reaches every
   binary without per-binary wiring. A malformed spec aborts: silently
   running a chaos experiment with no chaos is the worst failure mode. *)
let () =
  match Sys.getenv_opt "QP_FAULTS" with
  | None | Some "" -> ()
  | Some str -> (
      match parse str with
      | Ok specs -> install specs
      | Error msg ->
          Printf.eprintf "QP_FAULTS: %s\n%!" msg;
          exit 2)
