(* In-process side of the end-to-end benchmark (perfbench/run.py).

     probe sources DESIGN:TAG...   renamed catalog sources, one JSON list
     probe laws DESIGN...          the species in each design's laws
     probe check IN OUT [SPANS]    check results; with SPANS, also the
                                   traced layer replay

   It calls the same public library functions the front ends call, on
   the same inputs: to check that served results equal direct calls, that
   every final state keeps its conservation laws, and, in the traced run,
   to time each layer with spans recorded around those calls. *)

module J = Service.Json

let now = Unix.gettimeofday
let env = Crn.Rates.default_env

(* ------------------------------------------------------------ spans *)

(* One record per layer call: name, the span that caused it, the request
   it belongs to, start and end. Kept in memory, written out at the end;
   a layer's self time is its duration minus its children's. *)
type span = {
  sid : int;
  name : string;
  parent : int;
  req : int;
  start : float;
  mutable stop : float;
}

let tracing = ref false
let spans : span list ref = ref []
let n_spans = ref 0
let current = ref (-1)
let current_req = ref (-1)
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

let span name f =
  if not !tracing then f ()
  else begin
    let s =
      { sid = !n_spans; name; parent = !current; req = !current_req;
        start = now (); stop = 0. }
    in
    incr n_spans;
    spans := s :: !spans;
    let saved = !current in
    current := s.sid;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        current := saved)
      f
  end

let count name v =
  if !tracing then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

(* Self time of each layer: over the run ([total]), and the median over
   the requests that called the layer of its self time in that request. *)
let self_times () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s.stop -. s.start
          +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    !spans;
  let per_req = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0. (Hashtbl.find_opt children s.sid)
      in
      let k = (s.name, s.req) in
      Hashtbl.replace per_req k
        ((self *. 1000.) +. Option.value ~default:0. (Hashtbl.find_opt per_req k)))
    !spans;
  let by_name = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (name, _) ms ->
      Hashtbl.replace by_name name
        (ms :: Option.value ~default:[] (Hashtbl.find_opt by_name name)))
    per_req;
  Hashtbl.fold
    (fun name xs acc ->
      let a = Array.of_list xs in
      (name, (Array.fold_left ( +. ) 0. a, Numeric.Stats.median a)) :: acc)
    by_name []
  |> List.sort compare

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("id", J.int s.sid);
                ("name", J.str s.name);
                ("parent", J.int s.parent);
                ("req", J.int s.req);
                ("start_us", J.num (Float.round (s.start *. 1e6)));
                ("dur_us", J.num ((s.stop -. s.start) *. 1e6));
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* ---------------------------------------------------------- helpers *)

exception Check of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check s)) fmt
let get j k = J.member k j

let get_str j k =
  match Option.bind (get j k) J.to_str with
  | Some s -> s
  | None -> fail "missing string field %S" k

let get_float j k ~default =
  Option.value ~default (Option.bind (get j k) J.to_float)

let get_int j k ~default = Option.value ~default (Option.bind (get j k) J.to_int)

let floats j =
  match Option.bind j J.to_list with
  | Some xs ->
      Array.of_list
        (List.map
           (fun x ->
             match J.to_float x with Some f -> f | None -> fail "non-number")
           xs)
  | None -> fail "missing vector"

let vec_json v = J.List (Array.to_list (Array.map J.num v))

let names_json net =
  J.List (Array.to_list (Array.map J.str (Crn.Network.species_names net)))

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.replace tbl key v;
      v

(* ------------------------------------------------------ conservation *)

let laws_tbl = Hashtbl.create 16

(* Every final state must keep each conservation law of its network to
   within [abs] per unit of law weight plus [rel] of the law's total:
   exact for integer engines, rounding-level for float ones, and the
   4-decimal print for crnsim's final block. *)
let conserved ~key ~abs ~rel net x =
  let laws =
    memo laws_tbl key (fun () ->
        let laws = Crn.Conservation.laws net in
        if not (List.for_all (Crn.Conservation.is_invariant net) laws) then
          fail "conservation law not invariant";
        laws)
  in
  let x0 = Crn.Network.initial_state net in
  List.iter
    (fun w ->
      let t0 = Crn.Conservation.weighted_total w x0
      and t = Crn.Conservation.weighted_total w x in
      let scale = Array.fold_left (fun a c -> a +. Float.abs c) 0. w in
      let tol = (abs *. scale) +. (rel *. Float.max 1. (Float.abs t0)) in
      if not (Float.abs (t -. t0) <= tol) then
        fail "conservation law broken: total %.9g, expected %.9g" t t0)
    laws

(* --------------------------------------------------------- networks *)

let nets = Hashtbl.create 16

let spec_key req =
  match get req "network" with
  | Some n -> (
      match (Option.bind (get n "catalog") J.to_str, Option.bind (get n "text") J.to_str) with
      | Some name, None -> ("catalog:" ^ name, `Catalog name)
      | None, Some text -> ("text:" ^ text, `Text text)
      | _ -> fail "bad network spec")
  | None -> fail "request without network"

let build = function
  | `Catalog name -> Designs.Catalog.build name
  | `Text text -> Crn.Parser.network_of_string text

let network key spec = memo nets key (fun () -> build spec)

(* compiled models, as a warm shard cache holds them *)
let models = Hashtbl.create 16

let model key net =
  memo models key (fun () ->
      (Ode.Deriv.compile env net, Ssa.Gillespie.compile_model env net))

(* --------------------------------------------------- solve_ode items *)

let parse_final_block text =
  let values = Hashtbl.create 64 in
  let lines = String.split_on_char '\n' text in
  (match lines with
  | first :: _ when String.starts_with ~prefix:"final state at" first -> ()
  | _ -> fail "no final-state block");
  List.iteri
    (fun i line ->
      if i > 0 then
        match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
        | [ name; v ] -> (
            match float_of_string_opt v with
            | Some f -> Hashtbl.replace values name f
            | None -> fail "bad value line %S" line)
        | [] -> ()
        | _ -> fail "bad line %S" line)
    lines;
  values

let final_block t1 net x =
  let b = Buffer.create 512 in
  Printf.bprintf b "final state at t = %g:\n" t1;
  Array.iteri
    (fun i name ->
      if x.(i) > 1e-6 then Printf.bprintf b "  %-24s %10.4f\n" name x.(i))
    (Crn.Network.species_names net);
  Buffer.contents b

(* crnsim's printed final state keeps the design's conservation laws *)
let check_crnsim item =
  let design = get_str item "design" in
  let key = "catalog:" ^ design in
  let net = network key (`Catalog design) in
  let printed = parse_final_block (get_str item "stdout") in
  Hashtbl.iter
    (fun name _ ->
      if Crn.Network.find_species net name = None then
        fail "unknown species %S" name)
    printed;
  let x =
    Array.map
      (fun name -> Option.value ~default:0. (Hashtbl.find_opt printed name))
      (Crn.Network.species_names net)
  in
  conserved ~key ~abs:6e-5 ~rel:1e-6 net x

(* the crnsim ODE path: synthesize, compile, integrate with the
   Rosenbrock defaults Ode.Driver uses; the printed block must match *)
let replay_crnsim ~compare item =
  let design = get_str item "design" in
  let t1 = get_float item "t1" ~default:30. in
  let net = span "designs.synth" (fun () -> Designs.Catalog.build design) in
  let sys = span "ode.compile" (fun () -> Ode.Deriv.compile env net) in
  let xf, st =
    span "ode.integrate" (fun () ->
        Ode.Rosenbrock.integrate ~rtol:1e-4 ~atol:1e-7 ~t0:0. ~t1
          ~on_sample:(fun _ _ -> ())
          sys
          (Crn.Network.initial_state net))
  in
  count "ode.steps" (float_of_int st.Ode.Rosenbrock.steps);
  count "ode.rejected" (float_of_int st.Ode.Rosenbrock.rejected);
  count "ode.jac_evals" (float_of_int st.Ode.Rosenbrock.jac_evals);
  count "ode.factorizations" (float_of_int st.Ode.Rosenbrock.factorizations);
  if compare && final_block t1 net xf <> get_str item "stdout" then
    fail "crnsim final block differs from the direct integration"

(* ------------------------------------------------------ served items *)

let ssa_run ~seed ~t1 ~ssa net =
  let r = span "ssa.run" (fun () -> Ssa.Gillespie.run ~env ~seed ~model:ssa ~t1 net) in
  count "ssa.events" (float_of_int r.Ssa.Gillespie.n_events);
  r

(* The result object a daemon handler builds for the request, computed
   by direct library calls. Fields are those of Service.Server's
   handlers. *)
let direct ~op ~req ~net ~sys ~ssa =
  let t1 = get_float req "t1" ~default:50. in
  let seed = Int64.of_int (get_int req "seed" ~default:1) in
  match op with
  | "ssa" ->
      let r = ssa_run ~seed ~t1 ~ssa net in
      J.Obj
        [ ("t1", J.num t1); ("species", names_json net);
          ("final", vec_json r.Ssa.Gillespie.final);
          ("n_events", J.int r.Ssa.Gillespie.n_events) ]
  | "trace" ->
      let r = ssa_run ~seed ~t1 ~ssa net in
      let samples = Ode.Trace.length r.Ssa.Gillespie.trace in
      let chunk = get_int req "chunk" ~default:256 in
      J.Obj
        [ ("t1", J.num t1); ("samples", J.int samples);
          ("chunks", J.int ((samples + chunk - 1) / chunk));
          ("species", names_json net);
          ("final", vec_json r.Ssa.Gillespie.final);
          ("n_events", J.int r.Ssa.Gillespie.n_events) ]
  | "tau" ->
      let r = span "tau.run" (fun () -> Ssa.Tau_leap.run ~env ~seed ~t1 net) in
      count "tau.leaps" (float_of_int r.Ssa.Tau_leap.n_leaps);
      count "tau.exact_fallbacks" (float_of_int r.Ssa.Tau_leap.n_exact);
      J.Obj
        [ ("t1", J.num t1); ("species", names_json net);
          ("final", vec_json r.Ssa.Tau_leap.final);
          ("n_leaps", J.int r.Ssa.Tau_leap.n_leaps);
          ("n_exact", J.int r.Ssa.Tau_leap.n_exact) ]
  | "hybrid" ->
      let model = Hybrid.Engine.model_of ~ssa ~sys in
      let r = span "hybrid.run" (fun () -> Hybrid.Engine.run ~env ~seed ~model ~t1 net) in
      let s = r.Hybrid.Engine.stats in
      count "hybrid.ode_steps" (float_of_int s.Hybrid.Engine.n_ode_steps);
      count "hybrid.ssa_events" (float_of_int s.Hybrid.Engine.n_ssa_events);
      count "hybrid.rejected" (float_of_int s.Hybrid.Engine.n_rejected);
      count "hybrid.mode_switches" (float_of_int s.Hybrid.Engine.n_mode_switches);
      J.Obj
        [ ("t1", J.num t1); ("species", names_json net);
          ("final", vec_json r.Hybrid.Engine.final);
          ("n_events", J.int r.Hybrid.Engine.n_events);
          ( "stats",
            J.Obj
              [ ("ssa_events", J.int s.Hybrid.Engine.n_ssa_events);
                ("tau_leaps", J.int s.Hybrid.Engine.n_tau_leaps);
                ("tau_events", J.int s.Hybrid.Engine.n_tau_events);
                ("ode_steps", J.int s.Hybrid.Engine.n_ode_steps);
                ("repartitions", J.int s.Hybrid.Engine.n_repartitions);
                ("mode_switches", J.int s.Hybrid.Engine.n_mode_switches);
                ("rejected", J.int s.Hybrid.Engine.n_rejected);
                ("final_n_fast", J.int s.Hybrid.Engine.final_n_fast);
                ("final_n_slow", J.int s.Hybrid.Engine.final_n_slow);
                ("peak_n_fast", J.int s.Hybrid.Engine.peak_n_fast) ] ) ]
  | "ode" ->
      let xf, st =
        span "ode.integrate" (fun () ->
            Ode.Rosenbrock.integrate ~rtol:1e-4 ~atol:1e-7 ~t0:0. ~t1
              ~on_sample:(fun _ _ -> ())
              sys
              (Crn.Network.initial_state net))
      in
      count "ode.steps" (float_of_int st.Ode.Rosenbrock.steps);
      count "ode.rejected" (float_of_int st.Ode.Rosenbrock.rejected);
      count "ode.jac_evals" (float_of_int st.Ode.Rosenbrock.jac_evals);
      count "ode.factorizations" (float_of_int st.Ode.Rosenbrock.factorizations);
      J.Obj [ ("t1", J.num t1); ("species", names_json net); ("final", vec_json xf) ]
  | "ensemble" ->
      let runs = get_int req "runs" ~default:20 in
      let events = ref 0 in
      let finals =
        span "ssa.run" (fun () ->
            Ssa.Ensemble.map_with ~jobs:1 ~seed
              ~init_worker:(fun () -> Ssa.Gillespie.make_arena ssa)
              ~runs
              (fun arena _ s ->
                let r = Ssa.Gillespie.run ~env ~seed:s ~arena ~t1 net in
                events := !events + r.Ssa.Gillespie.n_events;
                r.Ssa.Gillespie.final))
      in
      count "ssa.events" (float_of_int !events);
      let n = Crn.Network.n_species net in
      let mean = Array.make n 0. and std = Array.make n 0. in
      for i = 0 to n - 1 do
        let xs = Array.map (fun f -> f.(i)) finals in
        mean.(i) <- Numeric.Stats.mean xs;
        std.(i) <- Numeric.Stats.stddev xs
      done;
      J.Obj
        [ ("t1", J.num t1); ("runs", J.int runs); ("species", names_json net);
          ("mean", vec_json mean); ("std", vec_json std) ]
  | op -> fail "no direct call for op %S" op

let result_field resp = match get resp "result" with Some r -> r | None -> fail "no result"

(* every field of the direct result must be byte-equal in the served one *)
let compare_fields ~direct ~served =
  match direct with
  | J.Obj fields ->
      List.iter
        (fun (k, v) ->
          match get served k with
          | Some sv when J.to_string sv = J.to_string v -> ()
          | Some _ -> fail "served %S differs from the direct call" k
          | None -> fail "served result lacks %S" k)
        fields
  | _ -> ()

let served item =
  let req = match get item "req" with Some r -> r | None -> fail "no request" in
  let resp = J.of_string (get_str item "resp") in
  if Option.bind (get resp "ok") J.to_bool <> Some true then fail "not ok";
  let key, spec = spec_key req in
  (req, get_str req "op", result_field resp, key, spec)

(* integer engines keep the laws exactly; ODE, hybrid and means to
   rounding; a catalog design always certifies *)
let check_served item =
  let _, op, result, key, spec = served item in
  let net = network key spec in
  match op with
  | "ssa" | "tau" | "trace" ->
      conserved ~key ~abs:0. ~rel:1e-9 net (floats (get result "final"))
  | "ode" | "hybrid" ->
      conserved ~key ~abs:1e-9 ~rel:1e-6 net (floats (get result "final"))
  | "ensemble" ->
      conserved ~key ~abs:1e-9 ~rel:1e-6 net (floats (get result "mean"))
  | "validate" ->
      if Option.bind (get result "verdict") J.to_str <> Some "certified" then
        fail "catalog design not certified"
  | op -> fail "unexpected op %S" op

(* the work the fleet did for the request, by direct calls along the
   request's path *)
let replay_served ~compare item =
  let req, op, result, key, spec = served item in
  let d =
    match get_str item "path" with
    | "validate" ->
        (* served inline: the daemon rebuilds the network and certifies *)
        let title = match spec with `Catalog name -> name | `Text _ -> "network" in
        let net = span "designs.synth" (fun () -> build spec) in
        let cert = span "exact.certify" (fun () -> Service.Verify.certify ~title net) in
        J.Obj
          [ ("verdict", J.str "certified");
            ("certificate", J.str (Exact.Certificate.render cert)) ]
    | "cold" ->
        (* a novel source: the gateway parses and keys it on its loop,
           then the shard parses, keys, fingerprints and compiles it *)
        let text = match spec with `Text t -> t | `Catalog _ -> fail "cold catalog" in
        let gw = span "crn.parse" (fun () -> Crn.Parser.network_of_string text) in
        ignore (span "crn.cache_key" (fun () -> Crn.Equiv.cache_key gw) : string);
        let net = span "crn.parse" (fun () -> Crn.Parser.network_of_string text) in
        ignore (span "crn.cache_key" (fun () -> Crn.Equiv.cache_key net) : string);
        ignore (span "crn.fingerprint" (fun () -> Crn.Equiv.fingerprint net) : string);
        let sys = span "ode.compile" (fun () -> Ode.Deriv.compile env net) in
        let ssa = span "ssa.compile" (fun () -> Ssa.Gillespie.compile_model env net) in
        direct ~op ~req ~net ~sys ~ssa
    | "hot" ->
        let net = network key spec in
        let sys, ssa = model key net in
        direct ~op ~req ~net ~sys ~ssa
    | p -> fail "unknown path %S" p
  in
  ignore (span "service.encode" (fun () -> J.to_string d) : string);
  if compare then compare_fields ~direct:d ~served:result

(* ------------------------------------------------------------ modes *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let verdict f = try f (); None with Check msg -> Some msg | e -> Some (Printexc.to_string e)

let check item =
  verdict (fun () ->
      match get_str item "kind" with
      | "crnsim" -> check_crnsim item
      | "served" -> check_served item
      | k -> fail "unknown item kind %S" k)

let replay ~compare item =
  match get_str item "kind" with
  | "crnsim" -> replay_crnsim ~compare item
  | _ -> replay_served ~compare item

(* Every item replayed twice, plain and in a request span, the order
   alternating from item to item so neither side always runs warm; the
   difference of the two sums is what recording the spans costs. *)
let replay_twice items =
  let plain = ref 0. and traced = ref 0. in
  let timed acc f =
    let t0 = now () in
    let x = f () in
    acc := !acc +. (now () -. t0);
    x
  in
  let verdicts =
    List.mapi
      (fun i item ->
        current_req := i;
        let run_plain () =
          tracing := false;
          ignore (timed plain (fun () -> verdict (fun () -> replay ~compare:true item)) : string option)
        and run_traced () =
          tracing := true;
          let v =
            timed traced (fun () ->
                verdict (fun () -> span "request" (fun () -> replay ~compare:true item)))
          in
          tracing := false;
          v
        in
        if i mod 2 = 0 then (run_plain (); run_traced ())
        else
          let v = run_traced () in
          run_plain ();
          v)
      items
  in
  (verdicts, !plain, !traced)

let check_mode inp out spans_out =
  let items =
    match J.to_list (J.of_string (read_file inp)) with
    | Some l -> l
    | None -> failwith "items file is not a JSON list"
  in
  let first a b = match a with Some _ -> a | None -> b in
  (* untimed: every output's own checks, in untraced runs also the
     served = direct comparison on the seeded sample *)
  let checked = List.map check items in
  let verdicts, extra =
    match spans_out with
    | None ->
        ( List.map2
            (fun item v ->
              if v = None && get item "sample" = Some (J.Bool true) then
                verdict (fun () -> replay ~compare:true item)
              else v)
            items checked,
          [] )
    | Some path ->
        let replayed, plain, traced = replay_twice items in
        write_spans path;
        let times = self_times () in
        let obj f = J.Obj (List.map (fun (name, v) -> (name, J.num (f v))) times) in
        ( List.map2 first checked replayed,
          [ ("plain_s", J.num plain); ("traced_s", J.num traced);
            ("total_ms", obj fst); ("median_ms", obj snd);
            ( "counts",
              J.Obj
                (Hashtbl.fold (fun k v acc -> (k, J.num v) :: acc) counters []
                |> List.sort compare) ) ] )
  in
  let oc = open_out out in
  output_string oc
    (J.to_string
       (J.Obj
          (( "why",
             J.List
               (List.map (function None -> J.Null | Some m -> J.str m) verdicts) )
          :: extra)));
  close_out oc

(* a catalog design with every species renamed by a per-request tag, so
   no cache or memo in the fleet has seen it *)
let sources_mode specs =
  let texts =
    List.map
      (fun spec ->
        match String.index_opt spec ':' with
        | None -> failwith ("expected DESIGN:TAG, got " ^ spec)
        | Some i ->
            let design = String.sub spec 0 i
            and tag = String.sub spec (i + 1) (String.length spec - i - 1) in
            let dst = Crn.Network.create () in
            ignore (Crn.Network.add_to ~prefix:(tag ^ "_") ~dst (Designs.Catalog.build design) : int -> int);
            J.str (Crn.Network.to_string dst))
      specs
  in
  print_string (J.to_string (J.List texts))

(* the species each catalog design's conservation laws weigh; a species
   outside all of them is free of every law *)
let laws_mode designs =
  let entry design =
    let net = Designs.Catalog.build design in
    let laws = Crn.Conservation.laws net in
    let names =
      Crn.Network.species_names net |> Array.to_list
      |> List.filteri (fun i _ -> List.exists (fun w -> w.(i) <> 0.) laws)
    in
    (design, J.List (List.map J.str names))
  in
  print_string (J.to_string (J.Obj (List.map entry designs)))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "sources" :: specs -> sources_mode specs
  | "laws" :: designs -> laws_mode designs
  | [ "check"; inp; out ] -> check_mode inp out None
  | [ "check"; inp; out; spans ] -> check_mode inp out (Some spans)
  | _ ->
      prerr_endline
        "usage: probe sources DESIGN:TAG... | probe laws DESIGN... | probe check IN OUT [SPANS]";
      exit 2
