(* Versioned on-disk checkpoints of precomputed broker state. The file
   is a short self-describing text header followed by a raw Marshal
   payload:

     QPSNAP <format_version>\n
     config <md5-hex of the canonical config description>\n
     payload <md5-hex of the payload bytes> <byte length>\n
     <payload bytes>

   The header is verified strictly in order — magic, version, config
   digest, payload digest — and the payload is only unmarshaled after
   every check passes, because Marshal.from_* is not type-safe: feeding
   it bytes written by a different type layout is undefined behaviour,
   not a catchable error. That is why the format version lives in the
   header (checked *before* unmarshal) and why
   scripts/check_snapshot_version.ml pins the transitive type
   fingerprint of the payload to [format_version]. *)

module WI = Qp_experiments.Workload_instances
module Runner = Qp_experiments.Runner
module V = Qp_workloads.Valuations

let magic = "QPSNAP"

(* Bump on ANY change to the marshaled payload's type layout (the
   Broker.frozen record or anything reachable from it). The
   check-snapshot-version lint fails until this and its recorded type
   fingerprint move together. *)
let format_version = 6

type config = {
  workload : string;
  scale : WI.scale;
  support : int option;
  seed : int;
  model : V.model;
  pricing : string;
  profile : Runner.profile;
}

let scale_name = function WI.Tiny -> "tiny" | WI.Default -> "default"
let profile_name = function Runner.Quick -> "quick" | Runner.Full -> "full"

(* Canonical, human-readable description of everything that determines
   the precomputed state. Two configs with equal descriptions build
   bit-identical brokers (same instance, same valuations, same
   solver), so the digest of this string is the staleness check. *)
let describe_config c =
  Printf.sprintf "workload=%s scale=%s support=%s seed=%d model=%s pricing=%s profile=%s"
    c.workload (scale_name c.scale)
    (match c.support with None -> "default" | Some n -> string_of_int n)
    c.seed (V.describe c.model) c.pricing (profile_name c.profile)

let config_digest c = Digest.to_hex (Digest.string (describe_config c))

type load_error =
  | Io of string
  | Bad_magic
  | Version_mismatch of { found : int; expected : int }
  | Stale of { found : string; expected : string }
  | Corrupt of string
  | Faulted of string

let describe_load_error = function
  | Io msg -> "cannot read snapshot: " ^ msg
  | Bad_magic -> "not a qpricing snapshot (bad magic)"
  | Version_mismatch { found; expected } ->
      Printf.sprintf
        "snapshot format v%d, this binary expects v%d — refusing to unmarshal"
        found expected
  | Stale { found; expected } ->
      Printf.sprintf
        "stale snapshot: config digest %s does not match this broker's %s"
        found expected
  | Corrupt msg -> "corrupt snapshot: " ^ msg
  | Faulted site -> "injected fault at " ^ site

(* --- write ------------------------------------------------------------ *)

let write_file ~file ~config payload =
  Qp_obs.with_span "serve.snapshot.write"
    ~args:(fun () ->
      [ ("file", Qp_obs.Str file); ("bytes", Qp_obs.Int (String.length payload)) ])
  @@ fun () ->
  let faulted =
    Qp_fault.enabled ()
    && Qp_fault.check ~key:(Qp_fault.site_key file) "serve.snapshot.write"
       <> None
  in
  if faulted then Error "injected fault at serve.snapshot.write"
  else
    let header =
      Printf.sprintf "%s %d\nconfig %s\npayload %s %d\n" magic format_version
        (config_digest config)
        (Digest.to_hex (Digest.string payload))
        (String.length payload)
    in
    (* Write-to-temp + rename so a crash mid-write can never leave a
       half-written file at the snapshot path: loads see either the old
       complete snapshot or the new complete one. *)
    let tmp = Printf.sprintf "%s.tmp.%d" file (Unix.getpid ()) in
    match
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc header;
          output_string oc payload);
      Sys.rename tmp file
    with
    | () -> Ok ()
    | exception Sys_error msg ->
        (try Sys.remove tmp with Sys_error _ -> ());
        Error msg

(* --- read ------------------------------------------------------------- *)

let read_file ~file config =
  Qp_obs.with_span "serve.snapshot.read"
    ~args:(fun () -> [ ("file", Qp_obs.Str file) ])
  @@ fun () ->
  let faulted =
    Qp_fault.enabled ()
    && Qp_fault.check ~key:(Qp_fault.site_key file) "serve.snapshot.read"
       <> None
  in
  if faulted then Error (Faulted "serve.snapshot.read")
  else
    match open_in_bin file with
    | exception Sys_error msg -> Error (Io msg)
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let line () =
              match input_line ic with
              | l -> Ok l
              | exception End_of_file -> Error (Corrupt "truncated header")
            in
            let ( let* ) = Result.bind in
            let* l1 = line () in
            let* version =
              match String.split_on_char ' ' l1 with
              | [ m; v ] when m = magic -> (
                  match int_of_string_opt v with
                  | Some v -> Ok v
                  | None -> Error (Corrupt ("bad version token " ^ v)))
              | _ -> Error Bad_magic
            in
            let* () =
              if version = format_version then Ok ()
              else
                Error
                  (Version_mismatch { found = version; expected = format_version })
            in
            let* l2 = line () in
            let* found_config =
              match String.split_on_char ' ' l2 with
              | [ "config"; d ] -> Ok d
              | _ -> Error (Corrupt "missing config line")
            in
            let expected_config = config_digest config in
            let* () =
              if found_config = expected_config then Ok ()
              else
                Error (Stale { found = found_config; expected = expected_config })
            in
            let* l3 = line () in
            let* digest, len =
              match String.split_on_char ' ' l3 with
              | [ "payload"; d; n ] -> (
                  match int_of_string_opt n with
                  | Some n when n >= 0 -> Ok (d, n)
                  | _ -> Error (Corrupt ("bad payload length " ^ n)))
              | _ -> Error (Corrupt "missing payload line")
            in
            let* payload =
              match really_input_string ic len with
              | p -> Ok p
              | exception End_of_file -> Error (Corrupt "truncated payload")
              | exception Sys_error msg -> Error (Io msg)
            in
            let* () =
              if Digest.to_hex (Digest.string payload) = digest then Ok ()
              else Error (Corrupt "payload digest mismatch")
            in
            (* No trailing garbage: the header's length must account for
               every remaining byte, or something rewrote the file. *)
            match input_char ic with
            | _ -> Error (Corrupt "trailing bytes after payload")
            | exception End_of_file -> Ok payload)
