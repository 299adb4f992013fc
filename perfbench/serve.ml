(* The [serve] workload: warm requests, open loop at fixed rates,
   through [Shard.engine ~shards:2].

   Keys are drawn from a skewed set: [hot_keys] keys get [hot_share] of
   the requests and fit in the workers' LRUs; the remaining cold keys
   are far more than the LRUs hold, so most cold requests fall through
   to the per-worker disk store filled during setup (verify-on-load).
   Every answer is already stored, so the fixpoint does no work here.

   No request carries a deadline, the rates are absolute, latency is
   timed from when each request was due, and the generator never has
   more than [max_outstanding] requests in flight, so the shards'
   admission queues (64 deep) never shed. The emit callback only
   records the arrival time and the raw line; parsing and checking
   happen after the timed phase. *)

open Xpds
open Common

let shards = 2
let queue_depth = 64
let max_outstanding = 64
let lru_capacity () = if !tiny then 32 else 256
let n_keys () = if !tiny then 256 else 4096
let hot_keys () = if !tiny then 24 else 192
let hot_share = 0.8

(* The load ladder (offered requests per second; the first step is the
   reference rate p50_ms and tail_ms are reported at) and the latency
   limit on each step's p99. Every step sends the same number of
   requests, so the slow reference step is the longest. The top step is
   far above the rate two workers sustain on two cores (about 47000/s),
   so that the ladder does not cap [max_rate_rps]. *)
let ladder () =
  if !tiny then [ 2000.; 4000. ]
  else [ 8000.; 20000.; 32000.; 44000.; 56000.; 72000.; 120000. ]
let limit_ms = 20.

let config () = Service.Config.(default |> with_cache_capacity (lru_capacity ()))

(* --- inputs --- *)

let key_formulas ~seed =
  let st = Random.State.make [| 0x5e7e; seed |] in
  let fp = Gen.fingerprint (config ()) in
  let taken = Hashtbl.create 4096 in
  Array.of_list
    (Gen.distinct ~fp ~taken (n_keys ()) (fun i ->
         Gen.op (Printf.sprintf "key_%d" i) (Gen.Sat (fst (Gen.sat_formula st)))
           Gen.Satisfiable))

(* The request sequence of one load step: key indices, hot with
   probability [hot_share]. *)
let schedule ~seed ~step n =
  let st = Random.State.make [| 0x5c4ed; seed; step |] in
  Array.init n (fun _ ->
      if Random.State.float st 1. < hot_share then Random.State.int st (hot_keys ())
      else hot_keys () + Random.State.int st (n_keys () - hot_keys ()))

(* --- the engine and the recording sink --- *)

type sink = { mutable t : float array; mutable l : string array; mutable n : int }

let new_sink () = { t = Array.make 4096 0.; l = Array.make 4096 ""; n = 0 }

let record s line =
  let t = now_ms () in
  if s.n = Array.length s.t then begin
    s.t <- Array.append s.t (Array.make s.n 0.);
    s.l <- Array.append s.l (Array.make s.n "")
  end;
  s.t.(s.n) <- t;
  s.l.(s.n) <- line;
  s.n <- s.n + 1

let take s =
  let r = (Array.sub s.t 0 s.n, Array.sub s.l 0 s.n) in
  s.n <- 0;
  r

let start_engine ~trace ~dir ~sink =
  let config = config () in
  let make_service ~shard =
    match
      Store.open_rw
        ~path:(Filename.concat dir (Printf.sprintf "store.%d" shard))
        ~protocol_version:Service.protocol_version
        ~config_fingerprint:(Gen.fingerprint config) ()
    with
    | Ok (store, _) -> Service.create ~store config
    | Error e -> failwith ("store: " ^ e)
  in
  Shard.engine ~queue_depth ~trace ~make_service ~shards ~emit:(record sink) config

(* Closed loop, at most [max_outstanding] in flight: the store fill and
   the warm-up. *)
let send_all eng lines =
  Array.iter
    (fun line ->
      while Engine.pending eng >= max_outstanding do
        ignore (Engine.wait eng 0.01)
      done;
      Engine.submit eng line)
    lines;
  Engine.drain eng

type setup = {
  keys : Gen.op array;
  eng : Engine.t;
  sink : sink;
  dir : string;
  fill : string array;  (* the fill response of each key *)
}

let setup ~seed ~trace =
  let keys = key_formulas ~seed in
  let dir = fresh_dir "serve" in
  let sink = new_sink () in
  let eng = start_engine ~trace ~dir ~sink in
  (* store fill: every key once; then the hot keys, so they start in
     the LRUs *)
  send_all eng (Array.mapi (fun i op -> Gen.line ~id:(Printf.sprintf "f%d" i) op) keys);
  let _, fill_lines = take sink in
  send_all eng (Array.init (hot_keys ()) (fun i -> Gen.line ~id:(Printf.sprintf "w%d" i) keys.(i)));
  ignore (take sink);
  let fill = Array.make (n_keys ()) "" in
  Array.iter
    (fun line ->
      let v = json_of_line line in
      match str_field "id" v with
      | Some id when String.length id > 1 && id.[0] = 'f' ->
        fill.(int_of_string (String.sub id 1 (String.length id - 1))) <- line
      | _ -> failwith ("serve: unexpected fill response " ^ line))
    fill_lines;
  { keys; eng; sink; dir; fill }

let close s =
  Engine.close s.eng;
  rm_rf s.dir

(* The answer checked at setup: the key's verdict and witness, replayed
   through both evaluators. *)
let check_fill (s : setup) =
  Array.mapi
    (fun i line ->
      let op = s.keys.(i) in
      (match Check.decide_response op line with
      | Check.Ok_answer -> ()
      | Check.Unknown -> failwith (op.name ^ ": unknown at setup")
      | Check.Wrong w -> failwith (op.name ^ ": " ^ w));
      let v = json_of_line line in
      (str_field "verdict" v, str_field "witness" v))
    s.fill

(* --- one open-loop load step --- *)

type step = {
  keys_of : int array;  (* key index of request i *)
  due : float array;
  sent : float array;
  lines : string array;
}

let requests_per_step ~seconds =
  if !tiny then 200
  else
    int_of_float
      (float seconds /. List.fold_left (fun a r -> a +. (1. /. r)) 0. (ladder ()))

let run_step (s : setup) ~seed ~step ~rate ~n =
  (* room for every reply up front, so the sink does not grow mid-step *)
  if Array.length s.sink.t < n + 64 then begin
    s.sink.t <- Array.make (n + 64) 0.;
    s.sink.l <- Array.make (n + 64) ""
  end;
  let keys_of = schedule ~seed ~step n in
  let lines =
    Array.mapi (fun i k -> Gen.line ~id:(Printf.sprintf "s%d.%d" step i) s.keys.(k)) keys_of
  in
  let due = Array.make n 0. and sent = Array.make n 0. in
  let interval = 1000. /. rate in
  let t0 = now_ms () +. 5. in
  for i = 0 to n - 1 do
    let d = t0 +. (float i *. interval) in
    due.(i) <- d;
    (* the generator polls instead of sleeping until the due time: a
       sleeping process wakes late by up to milliseconds on a VM, and
       that would be timed as the engine's latency *)
    while now_ms () < d || Engine.pending s.eng >= max_outstanding do
      ignore (Engine.wait s.eng 0.)
    done;
    sent.(i) <- now_ms ();
    Engine.submit s.eng lines.(i)
  done;
  Engine.drain s.eng;
  { keys_of; due; sent; lines }

(* What is kept of one reply once it has been checked. *)
type reply = {
  recv : float;
  tier : string;
  worker_ms : float;  (* the worker's own latency, admission to completion *)
  phases : (string * float) list;  (* the worker's spans, traced engines only *)
}

type step_result = {
  n : int;  (* requests sent *)
  lat : float list;  (* from due, ms *)
  late : float list;  (* send - due, ms *)
  shed : int;
  missing : int;
  wrong : string list;
  wall_s : float;  (* first due to last reply *)
  replies : reply option array;
}

(* Match the recorded replies of a step to its requests and check each
   against the answer checked for its key at setup. *)
let evaluate ~expected ~step (st : step) (times, lines) =
  let n = Array.length st.due in
  let got = Array.make n None in
  let prefix = Printf.sprintf "s%d." step in
  let plen = String.length prefix in
  let wrong = ref [] and shed = ref 0 and extra = ref 0 in
  Array.iteri
    (fun j line ->
      let v = json_of_line line in
      match str_field "id" v with
      | Some id when String.length id > plen && String.sub id 0 plen = prefix -> (
        let i = int_of_string (String.sub id plen (String.length id - plen)) in
        if got.(i) <> None then incr extra
        else
          match str_field "error" v with
          | Some "overloaded" ->
            incr shed;
            got.(i) <- Some { recv = times.(j); tier = "shed"; worker_ms = 0.; phases = [] }
          | Some e -> wrong := e :: !wrong
          | None ->
            let k = st.keys_of.(i) in
            if (str_field "verdict" v, str_field "witness" v) <> expected.(k) then
              wrong := Printf.sprintf "key_%d: answer differs from setup" k :: !wrong;
            let phases =
              match Json.member "trace" v with
              | Some tr -> (
                match Json.member "phases" tr with
                | Some (Json.Obj ph) ->
                  List.filter_map (fun (name, x) -> Option.map (fun x -> (name, x)) (Json.to_float x)) ph
                | _ -> [])
              | None -> []
            in
            got.(i) <-
              Some
                { recv = times.(j);
                  tier = Option.value (str_field "tier" v) ~default:"?";
                  worker_ms = Option.value (num_field "ms" v) ~default:0.;
                  phases })
      | _ -> incr extra)
    lines;
  if !extra > 0 then wrong := Printf.sprintf "%d unexpected or duplicate replies" !extra :: !wrong;
  let missing = Array.fold_left (fun a r -> if r = None then a + 1 else a) 0 got in
  let lat = ref [] and last = ref st.due.(0) in
  Array.iteri
    (fun i r ->
      match r with
      | Some r ->
        lat := (r.recv -. st.due.(i)) :: !lat;
        last := Float.max !last r.recv
      | None -> ())
    got;
  {
    n;
    lat = !lat;
    late = Array.to_list (Array.mapi (fun i s -> s -. st.due.(i)) st.sent);
    shed = !shed;
    missing;
    wrong = !wrong;
    wall_s = (!last -. st.due.(0)) /. 1000.;
    replies = got;
  }

let tier r name =
  Array.fold_left (fun a x -> match x with Some x when x.tier = name -> a + 1 | _ -> a) 0 r.replies

(* A step meets the limit when its p99 from-due latency is within
   [limit_ms], nothing was shed or lost, and the generator kept to its
   schedule (a growing backlog shows as lateness). *)
let passes r =
  r.shed = 0 && r.missing = 0 && quantile r.lat 0.99 <= limit_ms
  && quantile r.late 0.99 <= limit_ms

(* The highest rate the engine sustains: the completion rate pooled
   over the saturated steps, those that completed less than 95% of their
   offered rate. Below saturation a step completes requests as fast as
   they are offered; above it, as fast as the engine can. Pooling the
   saturated steps averages over seconds of the machine's noise, where
   the largest single step's rate picks the luckiest. A criterion on
   each step's p99 would be set by the machine's scheduling stalls,
   which reach tens of milliseconds, and would make the figure jump a
   whole step between runs. With no saturated step, the largest
   completion rate (the ladder's top) is the bound that is known. *)
let max_rate results =
  let saturated = List.filter (fun (rate, r) -> float r.n /. r.wall_s < 0.95 *. rate) results in
  match saturated with
  | [] -> List.fold_left (fun a (_, r) -> Float.max a (float r.n /. r.wall_s)) 0. results
  | l ->
    let total f = List.fold_left (fun a (_, r) -> a +. f r) 0. l in
    total (fun r -> float r.n) /. total (fun r -> r.wall_s)

(* [f] over each of 8 consecutive slices of a step's latencies. *)
let slices f r =
  let lat = Array.of_list (List.rev r.lat) in
  let size = max 1 (Array.length lat / 8) in
  List.init (max 1 (Array.length lat / size)) (fun b ->
      f (Array.to_list (Array.sub lat (b * size) size)))

let one_step (s : setup) ~expected ~seed ~step ~rate ~n =
  let st = run_step s ~seed ~step ~rate ~n in
  (st, evaluate ~expected ~step st (take s.sink))

(* The traced run: the reference step twice, on an untraced and on a
   traced engine (replies then carry the workers' phase spans); the
   router-side layers are timed after the phase by replaying the same
   lines through [Shard.route_line], the parser, and an in-process
   service for the response encoding. *)
let run_traced ~seed ~seconds =
  let n = requests_per_step ~seconds / 2 in
  let rate = List.hd (ladder ()) in
  let one trace =
    let s = setup ~seed ~trace in
    let expected = check_fill s in
    let st, r = one_step s ~expected ~seed ~step:0 ~rate ~n in
    close s;
    (s, st, r)
  in
  let _, _, plain = one false in
  let s, st, r = one true in
  let replies = Array.to_list r.replies |> List.filter_map Fun.id in
  let mean_phase name = mean (List.filter_map (fun x -> List.assoc_opt name x.phases) replies) in
  let config = config () in
  let fp = Gen.fingerprint config in
  let route_times = ref [] and per_shard = Array.make shards 0 in
  Array.iter
    (fun line ->
      let route, t = time_ms (fun () -> Shard.route_line ~config_fingerprint:fp ~shards line) in
      route_times := t :: !route_times;
      match route with
      | Shard.To i -> per_shard.(i) <- per_shard.(i) + 1
      | Shard.Fanout _ -> ())
    st.lines;
  let route_ms = mean !route_times in
  let parse_times =
    Array.to_list
      (Array.map
         (fun k ->
           match s.keys.(k).Gen.kind with
           | Gen.Sat phi ->
             let text = Pp.node_to_string phi in
             snd (time_ms (fun () -> ignore (Parser.node_of_string text)))
           | _ -> 0.)
         st.keys_of)
  in
  (* response encoding: warm an in-process service with a sample of the
     step's lines, then time [handle_line] again and subtract the span
     total it reports; what remains is serialization *)
  let svc = Service.create config in
  let sample = Array.sub st.lines 0 (min 400 (Array.length st.lines)) in
  Array.iter (fun l -> ignore (Service.handle_line svc l)) sample;
  let encode =
    Array.to_list
      (Array.map
         (fun l ->
           let out, t = time_ms (fun () -> Service.handle_line ~trace:true svc l) in
           let total =
             match Json.member "trace" (json_of_line out) with
             | Some tr -> Option.value (num_field "total_ms" tr) ~default:0.
             | None -> 0.
           in
           t -. total)
         sample)
  in
  let pipe_queue =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i x -> Option.map (fun x -> x.recv -. st.sent.(i) -. x.worker_ms -. route_ms) x)
            r.replies))
  in
  let hits = tier r "memory" and disk = tier r "disk" in
  let nr = List.length replies in
  let mean_shard = float (Array.fold_left ( + ) 0 per_shard) /. float shards in
  let wrong = r.wrong @ plain.wrong in
  {
    correct = wrong = [];
    attempted = r.n + plain.n;
    failed = r.shed + r.missing + plain.shed + plain.missing;
    notes = List.map (fun w -> "WRONG " ^ w) wrong;
    metrics =
      Layers.metrics
        [ ("xpath.parse_us", 1000. *. mean parse_times);
          ("xpath.canonical_us", 1000. *. mean_phase "canonicalize");
          ("service.wire_parse_us", 1000. *. mean_phase "parse");
          ("service.encode_us", 1000. *. mean encode);
          ("service.cache_probe_us", 1000. *. mean_phase "cache_probe");
          ("service.cache_hits", float hits);
          ("service.cache_misses", float (nr - hits));
          ("service.memory_hit_ratio", float hits /. float (max 1 nr));
          ("store.disk_hits", float disk);
          ("store.probe_us", 1000. *. mean_phase "store_probe");
          ("shard.route_us", 1000. *. route_ms);
          ("shard.pipe_queue_ms", mean pipe_queue);
          ("shard.max_over_mean_requests",
            float (Array.fold_left max 0 per_shard) /. mean_shard);
          ("load.late_ms", quantile r.late 0.99);
          ("trace.unattributed_ms",
            mean (List.map (fun x -> x.worker_ms -. sum (List.map snd x.phases)) replies));
          ("trace.overhead_pct", 100. *. ((median r.lat /. median plain.lat) -. 1.)) ];
  }

let setup_repeats = 5

let run ~seed ~seconds ~trace =
  if trace then run_traced ~seed ~seconds
  else begin
    let setups =
      List.init setup_repeats (fun i ->
          let s, t = time_ms (fun () -> setup ~seed ~trace:false) in
          if i < setup_repeats - 1 then close s;
          (s, t))
    in
    let s = fst (List.nth setups (setup_repeats - 1)) in
    let setup_s = median (List.map snd setups) /. 1000. in
    let expected = check_fill s in
    let n = requests_per_step ~seconds in
    let results =
      List.mapi
        (fun step rate ->
          let _, r = one_step s ~expected ~seed ~step ~rate ~n in
          (rate, { r with replies = [||] }))
        (ladder ())
    in
    close s;
    let all = List.map snd results in
    let attempted = List.fold_left (fun a r -> a + r.n) 0 all in
    let failed = List.fold_left (fun a r -> a + r.shed + r.missing) 0 all in
    let wrong = List.concat_map (fun r -> r.wrong) all in
    let r_ref = snd (List.hd results) in
    let notes =
      List.map (fun w -> "WRONG " ^ w) wrong
      @ List.map
          (fun (rate, r) ->
            Printf.sprintf
              "serve %6.0f/s: %6d req  done %6.0f/s  p50 %7.2f  p99 %8.2f  late p99 %8.2f ms  shed %d  %s"
              rate r.n (float r.n /. r.wall_s) (median r.lat) (quantile r.lat 0.99)
              (quantile r.late 0.99) r.shed
              (if passes r then "ok" else "over limit"))
          results
      @ [ Printf.sprintf "serve at %.0f/s (ms from due): p90 %.3f  p95 %.3f  p99 %.3f  p99.9 %.3f"
            (List.hd (ladder ())) (quantile r_ref.lat 0.9) (quantile r_ref.lat 0.95)
            (quantile r_ref.lat 0.99) (quantile r_ref.lat 0.999);
          "serve p90 per slice of the reference step (ms): "
          ^ String.concat " " (List.map (Printf.sprintf "%.3f") (slices (fun l -> quantile l 0.9) r_ref)) ]
    in
    { correct = wrong = []; attempted; failed;
      metrics =
        [ m "setup_s" "s" setup_s;
          (* answered requests over the steps' own wall times, first due
             to last reply: the generation of the lines and the checks
             fall outside them *)
          m "ops_per_s" "1/s"
            (float (attempted - failed) /. List.fold_left (fun a r -> a +. r.wall_s) 0. all);
          (* the median slice for p50; the quietest slice for the tail,
             which on a VM is otherwise set by noise periods that can
             cover most of a step, or the whole run. A stall of the
             workers' own that recurs through the step shows in every
             slice, so the quietest slice keeps it *)
          m "p50_ms" "ms" (median (slices median r_ref));
          m "tail_ms" "ms"
            (List.fold_left Float.min infinity (slices (fun l -> tail_sample l ~q:0.9) r_ref));
          m "max_rate_rps" "1/s" (max_rate results) ];
      notes }
  end
