(* The [eval] workload: distinct node queries through the [eval] verb
   ([Engine.in_process]) to documents registered with the service: three
   random data trees of [tree_sizes] nodes and one XML document encoded
   by the Appendix-A scheme. A round is a fresh service with the
   documents registered again (so each round starts with empty
   evaluator memos and result caches) and [queries_per_doc] distinct
   queries per document, interleaved. [lib/decision] is not used. *)

open Xpds
open Common

let tree_sizes () = if !tiny then [ 40; 80 ] else [ 200; 600; 1200 ]
let xml_elements () = if !tiny then 30 else 500
let queries_per_doc () = if !tiny then 6 else 256
let min_rounds () = 1
let tree_labels = [ "a"; "b"; "c"; "d" ]
let xml_tags = [ "r"; "e"; "f" ]
let xml_attrs = [ "x"; "y" ]

(* A random data tree of exactly [n] nodes: each new node hangs below a
   uniformly chosen earlier node. *)
let random_tree st n =
  let labels = Array.of_list tree_labels in
  let kids = Array.make n [] in
  for i = n - 1 downto 1 do
    let p = Random.State.int st i in
    kids.(p) <- i :: kids.(p)
  done;
  let data = Array.init n (fun _ -> Random.State.int st (max 2 (n / 8))) in
  let lab = Array.init n (fun _ -> labels.(Random.State.int st (Array.length labels))) in
  let rec build i = Data_tree.node lab.(i) data.(i) (List.map build kids.(i)) in
  build 0

(* A random XML document of exactly [n] elements, shaped like
   [random_tree], each element carrying each attribute with probability
   1/2, values drawn from a small pool so that data tests match. *)
let random_xml st n =
  let tags = Array.of_list xml_tags in
  let kids = Array.make n [] in
  for i = n - 1 downto 1 do
    let p = Random.State.int st i in
    kids.(p) <- i :: kids.(p)
  done;
  let b = Buffer.create (n * 24) in
  let rec elem i =
    let tag = tags.(Random.State.int st (Array.length tags)) in
    Buffer.add_string b ("<" ^ tag);
    List.iter
      (fun a ->
        if Random.State.bool st then
          Buffer.add_string b (Printf.sprintf " %s='v%d'" a (Random.State.int st 12)))
      xml_attrs;
    match kids.(i) with
    | [] -> Buffer.add_string b "/>"
    | ks ->
      Buffer.add_string b ">";
      List.iter elem ks;
      Buffer.add_string b ("</" ^ tag ^ ">")
  in
  elem 0;
  Buffer.contents b

type doc = {
  name : string;
  tree : Data_tree.t;  (* the source tree, for the oracle *)
  flat : Eval_doc.t;
  build_ms : float;
  queries : Ast.node array;
}

let distinct_queries st ~labels n =
  let config = { Generator.default with fuel = 10; labels } in
  let seen = Hashtbl.create n in
  let rec go acc k =
    if k = n then Array.of_list (List.rev acc)
    else
      let q = Generator.node ~config st in
      let s = Pp.node_to_string q in
      if Hashtbl.mem seen s then go acc k
      else (Hashtbl.replace seen s (); go (q :: acc) (k + 1))
  in
  go [] 0

let make_docs ~seed =
  let st = Random.State.make [| 0xe7a1; seed |] in
  let trees =
    List.map
      (fun n ->
        let tree = random_tree st n in
        let flat, build_ms = time_ms (fun () -> Eval_doc.of_tree tree) in
        { name = Printf.sprintf "t%d" n; tree; flat; build_ms;
          queries = distinct_queries st ~labels:tree_labels (queries_per_doc ()) })
      (tree_sizes ())
  in
  let xml = Xml_doc.parse_exn (random_xml st (xml_elements ())) in
  let flat, build_ms = time_ms (fun () -> Eval_doc.of_xml xml) in
  trees
  @ [ { name = "xml"; tree = Xml_doc.to_data_tree xml; flat; build_ms;
        queries = distinct_queries st ~labels:(xml_tags @ xml_attrs) (queries_per_doc ()) } ]

(* Interleave the documents' queries: (doc index, query index). *)
let order docs =
  let nd = List.length docs in
  Array.init (nd * queries_per_doc ()) (fun i -> (i mod nd, i / nd))

let line ~id (d : doc) q =
  Json.to_string
    (Json.Obj
       [ ("v", Json.Num 1.); ("id", Json.Str id); ("kind", Json.Str "eval");
         ("formula", Json.Str (Pp.node_to_string q)); ("doc", Json.Str d.name) ])

let fresh_service docs =
  let svc = Service.create Service.Config.default in
  List.iter
    (fun d ->
      match Service.register_doc svc ~name:d.name d.flat with
      | Ok () -> ()
      | Error e -> failwith e)
    docs;
  svc

(* One round: per-query latencies, responses, and the round's wall time
   (registration included). *)
let untraced_round docs lines =
  let t0 = now_ms () in
  let svc = fresh_service docs in
  let last = ref "" in
  let eng = Engine.in_process ~emit:(fun l -> last := l) svc in
  let n = Array.length lines in
  let lat = Array.make n 0. and resp = Array.make n "" in
  Array.iteri
    (fun i l ->
      let t0 = now_ms () in
      Engine.submit eng l;
      lat.(i) <- now_ms () -. t0;
      resp.(i) <- !last)
    lines;
  Engine.close eng;
  (lat, resp, now_ms () -. t0)

(* --- the check: count, root and the listed positions against the
   reference semantics on the source tree --- *)

let check_round docs ord resp =
  let docs = Array.of_list docs in
  let envs = Array.map (fun d -> (Semantics.env_of_tree d.tree, Data_tree.positions d.tree)) docs in
  let wrong = ref [] in
  Array.iteri
    (fun i (di, qi) ->
      let d = docs.(di) in
      let q = d.queries.(qi) in
      let env, positions = envs.(di) in
      let sat = Semantics.sat_nodes env q in
      let set = Hashtbl.create 64 in
      List.iter (fun p -> Hashtbl.replace set (Path.to_string p) ()) sat;
      let preorder = List.filter (fun p -> Hashtbl.mem set (Path.to_string p)) positions in
      let v = json_of_line resp.(i) in
      let listed =
        match Json.member "nodes" v with
        | Some (Json.Arr l) -> List.filter_map Json.to_str l
        | _ -> []
      in
      let rec take k = function x :: r when k > 0 -> x :: take (k - 1) r | _ -> [] in
      let ok =
        str_field "error" v = None
        && num_field "count" v = Some (float (List.length sat))
        && Json.member "root" v = Some (Json.Bool (Semantics.holds_at_root env q))
        && listed = List.map Path.to_string (take (List.length listed) preorder)
        && List.length listed = min 100 (List.length sat)
      in
      if not ok then
        wrong := Printf.sprintf "%s query %d (%s): %s" d.name qi (Pp.node_to_string q) resp.(i) :: !wrong)
    ord;
  !wrong

(* --- the traced round: the same requests layer by layer --- *)

let traced_round docs ord lines =
  let docs = Array.of_list docs in
  let evs = Array.map (fun d -> Eval.create d.flat) docs in
  let n = Array.length lines in
  let wire = ref 0. and parse = ref 0. and query = ref 0. and encode = ref 0. in
  let node_evals = ref 0 and wall = ref 0. in

  Array.iteri
    (fun i l ->
      let di, qi = ord.(i) in
      let text = Pp.node_to_string docs.(di).queries.(qi) in
      let _, t_parse = time_ms (fun () -> Parser.node_of_string text) in
      parse := !parse +. t_parse;
      let t0 = now_ms () in
      let req, t_wire = time_ms (fun () -> Service.wire_request_of_json l) in
      let q = match req with Ok (Service.Eval_request r) -> r.query | _ -> failwith "eval: bad line" in
      let ev = evs.(di) in
      let before = Eval.node_evals ev in
      let set, t_query = time_ms (fun () -> Eval.nodes ev q) in
      let evals = Eval.node_evals ev - before in
      (* the first 100 positions in preorder, as the service lists them *)
      let (count, positions), t_positions =
        time_ms (fun () ->
            let positions = ref [] and k = ref 0 in
            (try
               Bitv.iter
                 (fun x ->
                   if !k >= 100 then raise Exit;
                   positions := Eval_doc.position docs.(di).flat x :: !positions;
                   incr k)
                 set
             with Exit -> ());
            (Bitv.cardinal set, positions))
      in
      let t_query = t_query +. t_positions in
      let result =
        { Service.root = Bitv.mem 0 set; count; positions = List.rev !positions;
          truncated = count > 100; doc_nodes = docs.(di).flat.Eval_doc.n; node_evals = evals }
      in
      let _, t_encode =
        time_ms (fun () ->
            Service.eval_response_to_json
              { Service.ev_rid = string_of_int i; result = Ok result; ev_cached = false;
                ev_ms = t_query; ev_trace = Trace.create () })
      in
      wall := !wall +. (now_ms () -. t0);
      wire := !wire +. t_wire;
      query := !query +. t_query;
      encode := !encode +. t_encode;
      node_evals := !node_evals + evals)
    lines;
  (* what the memos retain: the words reachable from the evaluators
     minus those of their documents (the RSS of a process that has run
     a round already would not grow: the heap is reused) *)
  let reachable x = Obj.reachable_words (Obj.repr x) in
  let memo_kb = (reachable evs - reachable (Array.map (fun d -> d.flat) docs)) * (Sys.word_size / 8) / 1024 in
  (float n, !wire, !parse, !query, !encode, !node_evals, !wall, memo_kb)

let setup ~seed =
  let docs = make_docs ~seed in
  let ord = order docs in
  let arr = Array.of_list docs in
  let lines = Array.mapi (fun i (di, qi) -> line ~id:(string_of_int i) arr.(di) arr.(di).queries.(qi)) ord in
  ignore (fresh_service docs);
  (docs, ord, lines)

let run ~seed ~seconds ~trace =
  let setups = List.init 15 (fun _ -> time_ms (fun () -> setup ~seed)) in
  let docs, ord, lines = fst (List.hd setups) in
  let setup_s = median (List.map snd setups) /. 1000. in
  let rounds = ref [] in
  let t0 = now_ms () in
  let elapsed () = (now_ms () -. t0) /. 1000. in
  let continue () =
    match List.length !rounds with
    | 0 -> true
    | k when k < min_rounds () -> not trace
    | k -> (not trace) && elapsed () *. (1. +. 1. /. float k) <= float seconds
  in
  while continue () do
    rounds := untraced_round docs lines :: !rounds
  done;
  let rounds = List.rev !rounds in
  let walls = List.map (fun (_, _, w) -> w) rounds in
  let rounds = List.map (fun (l, r, _) -> (l, r)) rounds in
  let first_lat, first = List.hd rounds in
  let wrong = check_round docs ord first in
  let wrong =
    wrong
    @ List.concat_map
        (fun (_, resp) ->
          List.filter_map Fun.id
            (Array.to_list
               (Array.mapi
                  (fun i l ->
                    let key v = List.map (fun f -> Json.member f v) [ "root"; "count"; "nodes" ] in
                    if key (json_of_line l) <> key (json_of_line first.(i)) then
                      Some (Printf.sprintf "request %d: answer differs between rounds" i)
                    else None)
                  resp)))
        rounds
  in
  let n = Array.length lines in
  let attempted = n * List.length rounds in
  (* per-round figures, and their medians over the run's rounds: a
     scheduling stall moves one round, not the result *)
  let per_round f = median (List.map (fun (l, _) -> f (Array.to_list l)) rounds) in
  let notes =
    List.map (fun w -> "WRONG " ^ w) wrong
    @ [ Printf.sprintf "eval: %d queries x %d round(s), documents %s" n (List.length rounds)
          (String.concat ", " (List.map (fun d -> Printf.sprintf "%s=%d nodes" d.name d.flat.Eval_doc.n) docs)) ]
  in
  let metrics =
    if not trace then
      [ m "setup_s" "s" setup_s;
        m "ops_per_s" "1/s" (median (List.map (fun w -> float n /. (w /. 1000.)) walls));
        m "p50_ms" "ms" (per_round median);
        m "tail_ms" "ms" (per_round (fun l -> tail_sample l ~q:0.99));
        m "max_rate_rps" "1/s" (per_round (fun l -> 1000. /. mean l)) ]
    else begin
      let nq, wire, parse, query, encode, evals, wall, memo_kb = traced_round docs ord lines in
      let untraced = sum (Array.to_list first_lat) in
      Layers.metrics
        [ ("xpath.parse_us", 1000. *. parse /. nq);
          ("service.wire_parse_us", 1000. *. wire /. nq);
          ("service.encode_us", 1000. *. encode /. nq);
          ("eval.doc_build_ms", sum (List.map (fun d -> d.build_ms) docs));
          ("eval.query_ms", query /. nq);
          ("eval.node_evals", float evals);
          ("eval.node_evals_per_s", float evals /. (query /. 1000.));
          ("eval.rss_kb_per_query", float memo_kb /. nq);
          ("trace.unattributed_ms", (untraced -. (wire +. query +. encode)) /. nq);
          ("trace.overhead_pct", 100. *. ((wall /. untraced) -. 1.)) ]
    end
  in
  { correct = wrong = []; attempted; failed = 0; metrics; notes }
