(* The [decide] workload: cold requests, one at a time, through
   [Engine.in_process]. A round is the seed's set of distinct requests
   ({!Gen.decide_ops}) on a fresh service, LRU and disk store, so every
   request misses both tiers, is solved, inserted into the LRU and
   appended to the store. Fixpoint domains are fixed at 2. *)

open Xpds
open Common

let config () = Service.Config.(default |> with_domains 2)

let open_store ~config dir =
  match
    Store.open_rw ~path:(Filename.concat dir "store")
      ~protocol_version:Service.protocol_version
      ~config_fingerprint:(Gen.fingerprint config) ()
  with
  | Ok (s, _) -> s
  | Error e -> failwith ("store: " ^ e)

let lines ops = Array.mapi (fun i op -> Gen.line ~id:(string_of_int i) op) ops

(* One cold round through the engine: per-request latency and response. *)
let untraced_round ~config ~lines =
  let dir = fresh_dir "decide" in
  let store = open_store ~config dir in
  let svc = Service.create ~store config in
  let last = ref "" in
  let eng = Engine.in_process ~emit:(fun l -> last := l) svc in
  let n = Array.length lines in
  let lat = Array.make n 0. and resp = Array.make n "" in
  Array.iteri
    (fun i line ->
      let t0 = now_ms () in
      Engine.submit eng line;
      lat.(i) <- now_ms () -. t0;
      resp.(i) <- !last)
    lines;
  Engine.close eng;
  Store.close store;
  rm_rf dir;
  (lat, resp)

(* --- the traced round: the same requests, driven layer by layer through
   the public functions the service composes, each call timed --- *)

type layers = {
  mutable wire : float;
  mutable parse : float;
  mutable parses : int;
  mutable canon : float;
  mutable canons : int;
  mutable probe : float;
  mutable probes : int;
  mutable store_probe : float;
  mutable store_probes : int;
  mutable translate : float;
  mutable fixpoint : float;
  mutable verify : float;
  mutable solves : int;
  mutable append : float;
  mutable appends : int;
  mutable encode : float;
  mutable q : int;
  mutable k : int;
  mutable states : int;
  mutable transitions : int;
  mutable mergings : int;
  mutable pruned : int;
  mutable unknown : int;
  mutable waves : int;
  mutable domains_max : int;
  mutable imbalance_max : int;
}

let fresh_layers () =
  { wire = 0.; parse = 0.; parses = 0; canon = 0.; canons = 0; probe = 0.;
    probes = 0; store_probe = 0.; store_probes = 0; translate = 0.;
    fixpoint = 0.; verify = 0.; solves = 0; append = 0.; appends = 0;
    encode = 0.; q = 0; k = 0; states = 0; transitions = 0; mergings = 0;
    pruned = 0; unknown = 0; waves = 0; domains_max = 0; imbalance_max = 0 }

let formula_texts line =
  let v = json_of_line line in
  List.filter_map (fun f -> str_field f v) [ "formula"; "phi"; "psi" ]

(* Solve one keyed query the way the service does on a cold miss:
   canonicalize, probe the LRU, probe the store, solve, insert, append.
   Returns the response record and the time attributed to layers. *)
let solve_keyed (l : layers) ~config ~lru ~store ~id ~kind ~scope ~task formula =
  let sc = config.Service.Config.solver in
  let fp = Gen.fingerprint config in
  let (canon, key), t_canon =
    time_ms (fun () -> Cache_key.make ~kind ~salt:scope ~config_fingerprint:fp formula)
  in
  let hit, t_probe = time_ms (fun () -> Lru.find lru key) in
  if hit <> None then failwith "decide: a cold request hit the LRU";
  let probe, t_store_probe =
    time_ms (fun () -> Store.probe ~kind ~scope store ~key:(Cache_key.hex key) ~canon)
  in
  (match probe with Store.Miss -> () | _ -> failwith "decide: a cold request hit the store");
  let marks = ref [] in
  let options =
    { Sat.Options.default with
      width = sc.width; t0 = sc.t0; dup_cap = sc.dup_cap;
      merge_budget = sc.merge_budget; max_states = sc.max_states;
      max_transitions = sc.max_transitions; domains = sc.domains;
      prune = sc.prune; verify = sc.verify; certificate = sc.certificate;
      on_phase = (fun name -> marks := (name, now_ms ()) :: !marks) }
  in
  let report, t_solve =
    time_ms (fun () ->
        match task with
        | `Sat -> Sat.decide ~options canon
        | `Doctype rules -> Sat.decide_under_doctype ~options ~doctype:rules canon)
  in
  let t_end = now_ms () in
  let rec spans acc = function
    | (name, t) :: ((_, t') :: _ as rest) -> spans ((name, t' -. t) :: acc) rest
    | [ (name, t) ] -> (name, t_end -. t) :: acc
    | [] -> acc
  in
  let phase_ms = spans [] (List.rev !marks) in
  (* phase names: translate, doctype_restrict (both lib/automata),
     fixpoint[_parallel][_pruned], verify *)
  let phase p = sum (List.filter_map (fun (n, d) -> if p n then Some d else None) phase_ms) in
  let starts prefix n = String.length n >= String.length prefix && String.sub n 0 (String.length prefix) = prefix in
  let t_translate = phase (fun n -> n = "translate" || n = "doctype_restrict") in
  let t_fixpoint = phase (starts "fixpoint") in
  let t_verify = phase (( = ) "verify") in
  let admitted, t_append =
    time_ms (fun () ->
        Lru.add lru key report;
        Store.admit ~kind ~scope store ~key:(Cache_key.hex key) ~canon report)
  in
  let st = report.Sat.stats in
  l.canon <- l.canon +. t_canon;
  l.canons <- l.canons + 1;
  l.probe <- l.probe +. t_probe;
  l.probes <- l.probes + 1;
  l.store_probe <- l.store_probe +. t_store_probe;
  l.store_probes <- l.store_probes + 1;
  l.translate <- l.translate +. t_translate;
  l.fixpoint <- l.fixpoint +. t_fixpoint;
  l.verify <- l.verify +. t_verify;
  l.solves <- l.solves + 1;
  l.append <- l.append +. t_append;
  if admitted then l.appends <- l.appends + 1;
  l.q <- l.q + report.Sat.automaton_q;
  l.k <- l.k + report.Sat.automaton_k;
  l.states <- l.states + st.Emptiness.n_states;
  l.transitions <- l.transitions + st.Emptiness.n_transitions;
  l.mergings <- l.mergings + st.Emptiness.n_mergings;
  l.pruned <- l.pruned + st.Emptiness.prune.Emptiness.subsumed_pruned;
  (match report.Sat.verdict with Sat.Unknown _ -> l.unknown <- l.unknown + 1 | _ -> ());
  l.waves <- l.waves + st.Emptiness.par.Emptiness.par_waves;
  l.domains_max <- max l.domains_max st.Emptiness.par.Emptiness.domains_used;
  l.imbalance_max <- max l.imbalance_max st.Emptiness.par.Emptiness.par_imbalance_pct;
  let resp =
    { Service.id; report; cached = false; degraded = false; tier = "solve";
      ms = t_solve; key; trace = Trace.create () }
  in
  ( resp,
    t_canon +. t_probe +. t_store_probe +. t_translate +. t_fixpoint +. t_verify
    +. t_append )

let traced_round ~config ~lines =
  let l = fresh_layers () in
  let dir = fresh_dir "decide-traced" in
  let store = open_store ~config dir in
  let lru = Lru.create ~capacity:config.Service.Config.cache_capacity in
  let n = Array.length lines in
  let wall = Array.make n 0. and attributed = Array.make n 0. in
  Array.iteri
    (fun i line ->
      (* the formula parse alone, outside the request's window (the wire
         parse below includes it) *)
      let texts = formula_texts line in
      let (), t_parse =
        time_ms (fun () -> List.iter (fun s -> ignore (Parser.node_of_string s)) texts)
      in
      l.parse <- l.parse +. t_parse;
      l.parses <- l.parses + List.length texts;
      let t0 = now_ms () in
      let req, t_wire = time_ms (fun () -> Service.wire_request_of_json line) in
      l.wire <- l.wire +. t_wire;
      let solve = solve_keyed l ~config ~lru ~store in
      let encode f =
        let (_ : string), t = time_ms f in
        l.encode <- l.encode +. t;
        t
      in
      let att =
        match req with
        | Ok (Service.Sat_request r) ->
          let resp, a = solve ~id:r.id ~kind:"sat" ~scope:"" ~task:`Sat r.formula in
          a +. encode (fun () -> Service.response_to_json resp)
        | Ok (Service.Contains_request r) ->
          let resp, a =
            solve ~id:r.ct_id ~kind:"contains" ~scope:"" ~task:`Sat
              (Containment.query r.phi r.psi)
          in
          a +. encode (fun () -> Service.contains_response_to_json resp)
        | Ok (Service.Equiv_request r) ->
          let fwd, a =
            solve ~id:r.eq_id ~kind:"contains" ~scope:"" ~task:`Sat
              (Containment.query r.eq_phi r.eq_psi)
          in
          let bwd, b =
            solve ~id:r.eq_id ~kind:"contains" ~scope:"" ~task:`Sat
              (Containment.query r.eq_psi r.eq_phi)
          in
          a +. b
          +. encode (fun () ->
                 Service.equiv_response_to_json
                   { Service.eq_rid = r.eq_id; forward = fwd; backward = bwd;
                     eq_ms = fwd.ms +. bwd.ms })
        | Ok (Service.Doctype_request r) ->
          let resp, a =
            solve ~id:r.dt_id ~kind:"sat_under_doctype"
              ~scope:(Doctype.canonical_string r.dt_rules)
              ~task:(`Doctype r.dt_rules) r.dt_formula
          in
          a +. encode (fun () -> Service.doctype_response_to_json resp)
        | Ok (Service.Eval_request _) | Error _ -> failwith ("decide: bad line " ^ line)
      in
      wall.(i) <- now_ms () -. t0;
      attributed.(i) <- att +. t_wire)
    lines;
  Store.close store;
  rm_rf dir;
  (l, wall, attributed)

(* --- the run --- *)

type setup = { ops : Gen.op array; lines : string array }

let setup ~seed =
  let config = config () in
  let ops = Gen.decide_ops ~fp:(Gen.fingerprint config) ~seed in
  (* service and store start, as each round does it *)
  let dir = fresh_dir "decide-setup" in
  let store = open_store ~config dir in
  ignore (Service.create ~store config);
  Store.close store;
  rm_rf dir;
  { ops; lines = lines ops }

let setup_repeats = 15

let run ~seed ~seconds ~trace =
  let config = config () in
  let setups = List.init setup_repeats (fun _ -> time_ms (fun () -> setup ~seed)) in
  let { ops; lines } = fst (List.hd setups) in
  let setup_s = median (List.map snd setups) /. 1000. in
  let n = Array.length ops in
  (* timed phase: whole rounds until the next would overrun [seconds] *)
  let rounds = ref [] in
  let t0 = now_ms () in
  let elapsed () = (now_ms () -. t0) /. 1000. in
  let continue () =
    match !rounds with
    | [] -> true
    | rs -> elapsed () *. (1. +. 1. /. float (List.length rs)) <= float seconds
  in
  while continue () && (not trace || !rounds = []) do
    rounds := untraced_round ~config ~lines :: !rounds
  done;
  let timed_s = elapsed () in
  let rounds = List.rev !rounds in
  let traced = if trace then Some (traced_round ~config ~lines) else None in
  (* checks *)
  let first_lat, first = List.hd rounds in
  let wrong = ref [] and kept_ms = ref 0. in
  Array.iteri
    (fun i (op : Gen.op) ->
      match Check.decide_response op first.(i) with
      | Check.Ok_answer -> ()
      | Check.Unknown ->
        if op.kept then kept_ms := !kept_ms +. first_lat.(i)
        else wrong := (op.name ^ ": unknown") :: !wrong
      | Check.Wrong why -> wrong := (op.name ^ ": " ^ why) :: !wrong)
    ops;
  List.iter
    (fun (_, resp) ->
      Array.iteri
        (fun i (op : Gen.op) ->
          if Check.answer_class resp.(i) <> Check.answer_class first.(i) then
            wrong := (op.name ^ ": answer differs between rounds") :: !wrong)
        ops)
    rounds;
  let unknown_in resp =
    Array.fold_left
      (fun acc line ->
        let v = json_of_line line in
        let is_unknown =
          str_field "verdict" v = Some "unknown"
          || str_field "answer" v = Some "unknown"
          || List.exists
               (fun d ->
                 match Xpds.Json.member d v with
                 | Some o -> str_field "answer" o = Some "unknown"
                 | None -> false)
               [ "forward"; "backward" ]
        in
        if is_unknown then acc + 1 else acc)
      0 resp
  in
  let failed = List.fold_left (fun acc (_, resp) -> acc + unknown_in resp) 0 rounds in
  let attempted = n * List.length rounds in
  (* the latency figures leave out the kept failures, whose time is that
     of exhausting the budget; [failed] already counts them *)
  let lat =
    List.concat_map
      (fun (l, _) -> List.filteri (fun i _ -> not ops.(i).Gen.kept) (Array.to_list l))
      rounds
  in
  let round_ms = sum (Array.to_list first_lat) in
  let notes =
    List.map (fun w -> "WRONG " ^ w) (List.rev !wrong)
    @ [ Printf.sprintf
          "decide: %d requests x %d round(s); kept failures take %.1f%% of round 1 (%.0f of %.0f ms)"
          n (List.length rounds) (100. *. !kept_ms /. round_ms) !kept_ms round_ms;
        Printf.sprintf "decide (ms): p75 %.3f  p90 %.3f  p95 %.3f  p98 %.3f"
          (quantile lat 0.75) (quantile lat 0.9) (quantile lat 0.95) (quantile lat 0.98);
        "decide slowest requests (ms): "
        ^ String.concat " "
            (List.filteri (fun i _ -> i < 16)
               (List.sort (fun (_, a) (_, b) -> compare b a)
                  (Array.to_list (Array.mapi (fun i (o : Gen.op) -> (o.name, first_lat.(i))) ops)))
            |> List.map (fun (name, ms) -> Printf.sprintf "%s=%.1f" name ms)) ]
  in
  let metrics =
    match traced with
    | None ->
      let ops_per_s = float (attempted - failed) /. timed_s in
      [ m "setup_s" "s" setup_s;
        m "ops_per_s" "1/s" ops_per_s;
        m "p50_ms" "ms" (median lat);
        m "tail_ms" "ms" (slowest_mean lat ~share:0.05);
        m "max_rate_rps" "1/s" (1000. /. mean lat) ]
    | Some (l, wall, attributed) ->
      let per n x = if n = 0 then 0. else x /. float n in
      let nreq = float n in
      let untraced_total = round_ms and traced_total = sum (Array.to_list wall) in
      let unattributed =
        mean (List.init n (fun i -> first_lat.(i) -. attributed.(i)))
      in
      Layers.metrics
        [ ("xpath.parse_us", 1000. *. per l.parses l.parse);
          ("xpath.canonical_us", 1000. *. per l.canons l.canon);
          ("automata.translate_ms", l.translate /. nreq);
          ("automata.q", float l.q);
          ("automata.k", float l.k);
          ("decision.fixpoint_ms", l.fixpoint /. nreq);
          ("decision.states", float l.states);
          ("decision.transitions", float l.transitions);
          ("decision.mergings", float l.mergings);
          ("decision.transitions_per_s", float l.transitions /. (l.fixpoint /. 1000.));
          ("decision.pruned", float l.pruned);
          ("decision.prune_yield", float l.pruned /. float (max 1 (l.pruned + l.states)));
          ("decision.verify_ms", l.verify /. nreq);
          ("decision.budget_exhausted", float l.unknown);
          ("parallel.par_waves", float l.waves);
          ("parallel.domains_used_max", float l.domains_max);
          ("parallel.imbalance_max_pct", float l.imbalance_max);
          ("service.wire_parse_us", 1000. *. l.wire /. nreq);
          ("service.encode_us", 1000. *. l.encode /. nreq);
          ("service.cache_probe_us", 1000. *. per l.probes l.probe);
          ("service.cache_misses", float l.probes);
          ("store.appends", float l.appends);
          ("store.append_us", 1000. *. per l.solves l.append);
          ("store.probe_us", 1000. *. per l.store_probes l.store_probe);
          ("trace.unattributed_ms", unattributed);
          ("trace.overhead_pct", 100. *. ((traced_total /. untraced_total) -. 1.)) ]
  in
  { correct = !wrong = []; attempted; failed; metrics; notes }
