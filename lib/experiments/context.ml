type t = {
  profile : Runner.profile;
  seed : int;
  cache : (string, Workload_instances.t) Hashtbl.t;
}

let create ?(profile = Runner.Quick) ?(seed = 42) () =
  { profile; seed; cache = Hashtbl.create 4 }

let profile t = t.profile
let seed t = t.seed

let instance t key =
  let key = String.lowercase_ascii key in
  match Hashtbl.find_opt t.cache key with
  | Some i -> i
  | None ->
      let i = Workload_instances.build key ~seed:t.seed () in
      Hashtbl.replace t.cache key i;
      i
