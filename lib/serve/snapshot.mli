(** Versioned on-disk checkpoints of precomputed broker state —
    the persistence layer behind [qpricing serve --snapshot FILE].

    A snapshot is a short text header (magic, format version, config
    digest, payload digest + length) followed by a raw [Marshal]
    payload produced by {!Broker.save_snapshot}. Loading verifies the
    header strictly in order and only unmarshals once every check
    passes — [Marshal] is not type-safe, so a version or digest
    mismatch must be caught {e before} decoding, not after. The file
    format and the refusal taxonomy are documented in
    [docs/SERVING.md] ("Snapshots"). *)

val magic : string
(** First token of a snapshot file (["QPSNAP"]). *)

val format_version : int
(** Layout version of the marshaled payload. Bumped whenever any type
    reachable from the payload changes shape;
    [scripts/check_snapshot_version.ml] (in [make check]) pins a
    fingerprint of those type declarations to this number so the bump
    cannot be forgotten. Snapshots written under any other version are
    refused with {!Version_mismatch}. *)

type config = {
  workload : string;  (** workload key, e.g. ["skewed"] *)
  scale : Qp_experiments.Workload_instances.scale;
  support : int option;  (** support-set size override, [None] = default *)
  seed : int;  (** instance + valuation seed *)
  model : Qp_workloads.Valuations.model;
  pricing : string;  (** pricing-family key *)
  profile : Qp_experiments.Runner.profile;
}
(** Everything that determines the precomputed state. Two equal configs
    build bit-identical brokers, so snapshot staleness is exactly
    "the file's config digest differs from mine". *)

(** Why a snapshot was refused. Every refusal is typed so the caller
    (the CLI, the soak) can report it and fall back to recompute. *)
type load_error =
  | Io of string  (** file missing/unreadable *)
  | Bad_magic  (** not a snapshot file at all *)
  | Version_mismatch of { found : int; expected : int }
      (** written by a binary with a different payload layout *)
  | Stale of { found : string; expected : string }
      (** config digests differ: built from other parameters *)
  | Corrupt of string  (** truncated, digest mismatch, trailing bytes *)
  | Faulted of string  (** injected [serve.snapshot.read] fault *)

val describe_load_error : load_error -> string
(** Human-readable one-liner for logs and [ERR] messages. *)

val write_file : file:string -> config:config -> string -> (unit, string) result
(** [write_file ~file ~config payload] frames [payload] under a header
    recording {!format_version} and [config]'s digest, then writes it
    atomically (temp file + rename), so a crash mid-write never leaves
    a torn snapshot at [file]. Consults the ["serve.snapshot.write"]
    fault site (key = hash of the path) and runs under a span of the
    same name. [Error] carries the OS or injection message. *)

val read_file : file:string -> config -> (string, load_error) result
(** Read and verify a snapshot written by {!write_file}: magic, then
    format version, then [config]'s digest, then the payload digest and
    exact length — returning the raw payload only if all pass. Consults
    the ["serve.snapshot.read"] fault site and runs under a span of the
    same name. Never unmarshals; that is {!Broker.load_snapshot}'s job,
    and only on an [Ok] payload. *)
