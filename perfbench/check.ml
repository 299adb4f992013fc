(* The independent checks, run after the timed phase. None of them
   compares against a stored copy of earlier output: each answer is held
   against its answer known by construction and replayed through the
   reference semantics ({!Xpds.Semantics}), the bulk evaluator
   ({!Xpds.Eval}), brute-force model search ({!Xpds.Model_search}) or
   the direct QBF solver. *)

open Xpds
open Ast

(* --- the paper notation ⟨a,0⟩(⟨b,1⟩, …) ---

   A [sat] response ships its witness as [Data_tree.to_string], the
   paper's notation, which [Data_tree.of_string] does not read (it reads
   the compact [a:0(b:1)] syntax). This reader is the benchmark's own. *)

let langle = "\xe2\x9f\xa8"
let rangle = "\xe2\x9f\xa9"

let paper_tree_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = failwith (Printf.sprintf "witness %S: %s at %d" s what !pos) in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t') do
      incr pos
    done
  in
  let expect tok =
    skip_ws ();
    let k = String.length tok in
    if !pos + k <= n && String.sub s !pos k = tok then pos := !pos + k
    else fail ("expected " ^ tok)
  in
  let rec tree () =
    expect langle;
    let start = !pos in
    while !pos < n && s.[!pos] <> ',' do incr pos done;
    let label = String.trim (String.sub s start (!pos - start)) in
    expect ",";
    skip_ws ();
    let dstart = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
    if !pos = dstart then fail "expected a datum";
    let datum = int_of_string (String.sub s dstart (!pos - dstart)) in
    expect rangle;
    skip_ws ();
    let children =
      if !pos < n && s.[!pos] = '(' then begin
        incr pos;
        let rec more acc =
          let c = tree () in
          skip_ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; more (c :: acc))
          else (expect ")"; List.rev (c :: acc))
        in
        more []
      end
      else []
    in
    Data_tree.node label datum children
  in
  let t = tree () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  t

let compact_tree s =
  match Data_tree.of_string s with
  | Ok t -> t
  | Error e -> failwith (Printf.sprintf "counterexample %S: %s" s e)

(* --- replays --- *)

(* A model of [phi] must satisfy it somewhere under both evaluators. *)
let replay_model phi w =
  Semantics.check_somewhere w phi
  && Eval.check_somewhere (Eval.create (Eval_doc.of_tree w)) phi

let rec labels_node acc = function
  | True | False -> acc
  | Lab l -> Label.to_string l :: acc
  | Not a -> labels_node acc a
  | And (a, b) | Or (a, b) -> labels_node (labels_node acc a) b
  | Exists p -> labels_path acc p
  | Cmp (p, _, q) -> labels_path (labels_path acc p) q

and labels_path acc = function
  | Axis _ -> acc
  | Seq (a, b) | Union (a, b) -> labels_path (labels_path acc a) b
  | Filter (p, n) | Guard (n, p) -> labels_node (labels_path acc p) n
  | Star p -> labels_path acc p

(* Small bounds for the brute-force search: every tree of height ≤ 2,
   branching ≤ 2, ≤ 3 data values, over the formula's labels and one
   fresh label, capped at [max_trees]. A hit refutes an [unsat] answer;
   a miss is evidence at these bounds, not a proof. *)
let max_trees = 4000

let no_small_model phi =
  match Model_search.search ~max_height:2 ~max_width:2 ~max_data:3 ~max_trees phi with
  | Model_search.Sat _ -> false
  | Model_search.Unsat_within_bounds _ | Model_search.Budget_exhausted _ -> true

let no_small_conforming_model phi rules =
  let names =
    List.sort_uniq compare
      (("zz" :: labels_node [] phi) @ Doctype.rule_labels rules)
  in
  let rule_labels = List.map Label.of_string (Doctype.rule_labels rules) in
  let trees =
    Seq.take max_trees
      (Tree_gen.enumerate
         ~labels:(List.map Label.of_string names)
         ~max_height:2 ~max_width:2 ~max_data:2)
  in
  not
    (Seq.exists
       (fun t ->
         Doctype.conforms ~labels:rule_labels rules t
         && Semantics.check_somewhere t phi)
       trees)

(* --- reading one decide response --- *)

type verdict = Ok_answer | Unknown | Wrong of string

let fail fmt = Printf.ksprintf (fun s -> Wrong s) fmt

(* A contains answer ("holds" | "holds_bounded" | "fails" | "unknown")
   for the query phi ⊑ psi, held against [expect]. *)
let contains_direction ~expect phi psi v =
  match Common.str_field "answer" v with
  | Some "unknown" -> Unknown
  | Some ("holds" | "holds_bounded") ->
    if expect <> Gen.Unsatisfiable then fail "holds, expected fails"
    else if no_small_model (Containment.query phi psi) then Ok_answer
    else fail "holds, but a small counterexample exists"
  | Some "fails" -> (
    if expect <> Gen.Satisfiable then fail "fails, expected holds"
    else
      match Common.str_field "counterexample" v with
      | None -> fail "fails without a counterexample"
      | Some c ->
        let t = compact_tree c in
        if replay_model (Containment.query phi psi) t then Ok_answer
        else fail "counterexample does not replay")
  | _ -> fail "no answer"

let decide_response (op : Gen.op) line =
  let v = Common.json_of_line line in
  match Common.str_field "error" v with
  | Some e -> fail "error: %s" e
  | None -> (
    match op.kind with
    | Gen.Sat phi -> (
      let qbf_ok sat =
        match op.qbf with None -> true | Some q -> Qbf.valid q = sat
      in
      match Common.str_field "verdict" v with
      | Some "unknown" -> Unknown
      | Some "sat" -> (
        match Common.str_field "witness" v with
        | None -> fail "sat without a witness"
        | Some w ->
          if op.expect <> Gen.Satisfiable || not (qbf_ok true) then
            fail "sat, expected unsat"
          else if replay_model phi (paper_tree_of_string w) then Ok_answer
          else fail "witness does not replay")
      | Some ("unsat" | "unsat_bounded") ->
        if op.expect <> Gen.Unsatisfiable || not (qbf_ok false) then
          fail "unsat, expected sat"
        else if no_small_model phi then Ok_answer
        else fail "unsat, but a small model exists"
      | _ -> fail "no verdict")
    | Gen.Contains (phi, psi) -> contains_direction ~expect:op.expect phi psi v
    | Gen.Equiv (phi, psi) -> (
      let dir name = match Xpds.Json.member name v with Some d -> d | None -> Xpds.Json.Null in
      let want_fwd, want_bwd =
        match op.expect with
        | Gen.Equivalent true -> (Gen.Unsatisfiable, Gen.Unsatisfiable)
        | _ -> (Gen.Satisfiable, Gen.Unsatisfiable)
      in
      match
        ( contains_direction ~expect:want_fwd phi psi (dir "forward"),
          contains_direction ~expect:want_bwd psi phi (dir "backward") )
      with
      | (Wrong _ as w), _ | _, (Wrong _ as w) -> w
      | Unknown, _ | _, Unknown -> Unknown
      | Ok_answer, Ok_answer -> (
        match (Xpds.Json.member "equivalent" v, op.expect) with
        | Some (Xpds.Json.Bool b), Gen.Equivalent b' when b = b' -> Ok_answer
        | _ -> fail "wrong equivalent field"))
    | Gen.Doctype (phi, rules) -> (
      match Common.str_field "verdict" v with
      | Some "unknown" -> Unknown
      | Some "sat" -> (
        match Common.str_field "witness" v with
        | None -> fail "sat without a witness"
        | Some w ->
          let t = compact_tree w in
          let labels = List.map Label.of_string (Doctype.rule_labels rules) in
          if op.expect <> Gen.Satisfiable then fail "sat, expected unsat"
          else if replay_model phi t && Doctype.conforms ~labels rules t then Ok_answer
          else fail "doctype witness does not replay or conform")
      | Some ("unsat" | "unsat_bounded") ->
        if op.expect <> Gen.Unsatisfiable then fail "unsat, expected sat"
        else if no_small_conforming_model phi rules then Ok_answer
        else fail "unsat, but a small conforming model exists"
      | _ -> fail "no verdict"))

(* The answer class of a response, compared across rounds: the same
   request must get the same answer every time. *)
let answer_class line =
  let v = Common.json_of_line line in
  let f name = Option.value (Common.str_field name v) ~default:"" in
  match Xpds.Json.member "forward" v, Xpds.Json.member "backward" v with
  | Some a, Some b ->
    String.concat "/"
      [ Option.value (Common.str_field "answer" a) ~default:"";
        Option.value (Common.str_field "answer" b) ~default:"" ]
  | _ -> f "verdict" ^ f "answer" ^ f "error"
