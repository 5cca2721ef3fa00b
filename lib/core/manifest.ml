(* Run manifests: the provenance record emitted alongside every trace,
   metrics, or bench artifact so a result file can be traced back to
   the exact code revision, configuration, seed and topology that
   produced it.  Everything in a manifest is either deterministic
   (config, seed, digest) or explicitly environmental (git revision,
   OCaml version, core count) — there are no wall-clock timestamps, so
   two runs of the same build on the same inputs write byte-identical
   manifests. *)

module Vhash = Dtr_util.Vhash
module Json = Dtr_util.Json
module Graph = Dtr_graph.Graph

let version = "1.0.0"

let getenv name =
  match Sys.getenv_opt name with Some "" | None -> None | some -> some

(* Revision resolution order: an explicit override (set by CI or the
   bench harness), the Actions-provided SHA, then asking git itself;
   "unknown" when building from a tarball. *)
let git_rev () =
  match getenv "DTR_GIT_REV" with
  | Some r -> r
  | None -> (
      match getenv "GITHUB_SHA" with
      | Some r -> r
      | None -> (
          try
            let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
            let line = try input_line ic with End_of_file -> "" in
            match Unix.close_process_in ic with
            | Unix.WEXITED 0 when line <> "" -> line
            | _ -> "unknown"
          with _ -> "unknown"))

let build_info () =
  Printf.sprintf "dtr %s (rev %s, ocaml %s, %d cores)" version (git_rev ())
    Sys.ocaml_version
    (Domain.recommended_domain_count ())

(* Structural fingerprint of a topology: node/arc counts and every
   arc's endpoints, capacity and delay folded through Vhash.combine in
   arc-id order.  Float fields enter as their IEEE bit patterns, so the
   digest distinguishes topologies down to the last ulp. *)
let topology_digest g =
  let bits f =
    Int64.to_int (Int64.logand (Int64.bits_of_float f) Int64.max_int)
  in
  let h = ref (Vhash.combine 0 (Graph.node_count g)) in
  h := Vhash.combine !h (Graph.arc_count g);
  Array.iter
    (fun (a : Graph.arc) ->
      h := Vhash.combine !h a.src;
      h := Vhash.combine !h a.dst;
      h := Vhash.combine !h (bits a.capacity);
      h := Vhash.combine !h (bits a.delay))
    (Graph.arcs g);
  Printf.sprintf "%016x" (!h land max_int)

let float_str x = Printf.sprintf "%.17g" x

let config_json (c : Search_config.t) =
  let robust =
    match c.robust with
    | None -> "null"
    | Some r ->
        Printf.sprintf "{\"alpha\":%s,\"top_k\":%d}"
          (float_str r.Search_config.alpha)
          r.Search_config.top_k
  in
  Printf.sprintf
    "{\"n_iters\":%d,\"k_iters\":%d,\"diversify_after\":%d,\"tau\":%s,\"max_step\":%d,\"scan_probability\":%s,\"scan_jobs\":%d,\"trace_probes\":%b,\"trace_sample\":%d,\"robust\":%s}"
    c.n_iters c.k_iters c.diversify_after (float_str c.tau) c.max_step
    (float_str c.scan_probability) c.scan_jobs c.trace_probes
    c.trace_sample robust

let to_json ?seed ?jobs ?restarts ?model ?topology ?config ?graph () =
  let b = Buffer.create 256 in
  let field name value =
    if Buffer.length b > 1 then Buffer.add_char b ',';
    Buffer.add_string b (Json.quote name);
    Buffer.add_char b ':';
    Buffer.add_string b value
  in
  Buffer.add_char b '{';
  field "tool" "\"dtr\"";
  field "version" (Json.quote version);
  field "git_rev" (Json.quote (git_rev ()));
  field "ocaml" (Json.quote Sys.ocaml_version);
  field "os_type" (Json.quote Sys.os_type);
  field "cores" (string_of_int (Domain.recommended_domain_count ()));
  (match seed with Some s -> field "seed" (string_of_int s) | None -> ());
  (match jobs with Some j -> field "jobs" (string_of_int j) | None -> ());
  (match restarts with
  | Some r -> field "restarts" (string_of_int r)
  | None -> ());
  (match model with Some m -> field "model" (Json.quote m) | None -> ());
  (match topology with Some t -> field "topology" (Json.quote t) | None -> ());
  (match graph with
  | Some g ->
      field "nodes" (string_of_int (Graph.node_count g));
      field "arcs" (string_of_int (Graph.arc_count g));
      field "topology_digest" (Json.quote (topology_digest g))
  | None -> ());
  (match config with Some c -> field "config" (config_json c) | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let write ~path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc json;
      output_char oc '\n')
