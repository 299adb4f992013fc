(* Input generation. Every input the program sees is built here, from
   the run's seed; the fixed family instances do not depend on it.

   Random formulas are made satisfiable by construction: a random
   formula is negated when needed so that a random small data tree
   satisfies it somewhere. Unconstrained random formulas are not used
   because a few percent of them, even at small sizes, are unsatisfiable
   formulas on which the fixpoint exhausts its budget (see CHANGES.md),
   which would make the share of failed operations depend on the seed. *)

open Xpds
open Ast
module B = Build

(* --- the fixed families (answers known by construction) --- *)

(* XPath(↓): a chain of n child steps labelled a; the unsat variant also
   forbids a-children everywhere. *)
let child_chain ~sat n =
  let rec nest k =
    if k = 0 then B.lab "a"
    else B.exists (B.filter B.down (And (B.lab "a", nest (k - 1))))
  in
  if sat then nest n
  else And (nest n, B.everywhere (B.not_ (B.exists (B.filter B.down (B.lab "a")))))

let rec down_k k = if k = 1 then B.down else Seq (B.down, down_k (k - 1))

(* XPath(↓,=): the root's datum reappears at depth n and at no earlier
   depth; the unsat variant also forbids children. *)
let data_chain ~sat n =
  let deep = B.eq B.eps (down_k n) in
  let shallow =
    List.init (n - 1) (fun i -> B.not_ (B.eq B.eps (down_k (i + 1))))
  in
  if sat then B.conj (deep :: shallow)
  else B.conj ((deep :: shallow) @ [ B.not_ (B.exists B.down) ])

(* XPath(↓∗,=): k equality requirements between label pairs plus
   distinctness; the unsat variant forbids the label a0. *)
let desc_data ~sat k =
  let li i = Printf.sprintf "a%d" i and ri i = Printf.sprintf "b%d" i in
  let base =
    B.conj
      (List.init k (fun i ->
           And
             ( B.eq (B.desc_lab (li i)) (B.desc_lab (ri i)),
               B.neq (B.desc_lab (li i)) (B.desc_lab (ri ((i + 1) mod k))) )))
  in
  if sat then base else And (base, B.everywhere (B.not_ (B.lab (li 0))))

(* XPath(↓∗,=) with ε: the root shares its datum with k labels. *)
let root_data k =
  B.conj
    (List.init k (fun i -> B.eq B.eps (B.desc_lab (Printf.sprintf "c%d" i))))

(* regXPath(↓,=): an (a b)+ alternation with endpoints of different
   data; the unsat variant forbids b. *)
let reg_alternation ~sat =
  let abplus =
    Seq
      ( B.child_lab "a",
        Seq (B.child_lab "b", Star (Seq (B.child_lab "a", B.child_lab "b"))) )
  in
  let base = And (B.neq abplus abplus, B.not_ (B.neq B.eps (B.desc_lab "a"))) in
  if sat then base else And (base, B.everywhere (B.not_ (B.lab "b")))

(* XPath(↓,↓∗), data-free. *)
let mixed_axes ~sat n =
  let rec nest k =
    if k = 0 then B.lab "z"
    else B.exists (Seq (B.down, B.filter B.desc (nest (k - 1))))
  in
  if sat then nest n else And (nest n, B.everywhere (B.not_ (B.lab "z")))

(* A valid and an invalid QBF with n variables. *)
let qbf_family n =
  let prefix =
    List.init n (fun i -> if i mod 2 = 0 then Qbf.Exists else Qbf.Forall)
  in
  ( { Qbf.prefix; clauses = [ List.init n (fun i -> i + 1) ] },
    { Qbf.prefix; clauses = List.init n (fun i -> [ i + 1 ]) @ [ [ -1 ] ] } )

(* --- seeded random inputs --- *)

let labels_abc = [ "a"; "b"; "c" ]

let random_tree st =
  Tree_gen.random ~state:st
    ~labels:(List.map Label.of_string labels_abc)
    ~max_height:3 ~max_width:2 ~max_data:3 ()

(* A random formula and a tree satisfying it somewhere. *)
let sat_formula ?(data = true) ?(fuel = 10) st =
  let config =
    { Generator.default with fuel; labels = labels_abc; allow_data = data }
  in
  let phi = Generator.node ~config st in
  let t = random_tree st in
  ((if Semantics.check_somewhere t phi then phi else Not phi), t)

(* Document-type rules the tree conforms to: each label present forbids
   the labels that never occur among its children in the tree. *)
let rules_for_tree t =
  let seen = Hashtbl.create 8 in
  Data_tree.iter
    (fun _ nd ->
      let l = Label.to_string (Data_tree.label nd) in
      List.iter
        (fun c -> Hashtbl.replace seen (l, Label.to_string (Data_tree.label c)) ())
        (Data_tree.children nd))
    t;
  List.filter_map
    (fun l ->
      match List.filter (fun c -> not (Hashtbl.mem seen (l, c))) labels_abc with
      | [] -> None
      | forbidden -> Some { Doctype.parent = l; at_least = []; forbidden })
    (List.sort_uniq compare
       (Data_tree.fold (fun _ nd acc -> Label.to_string (Data_tree.label nd) :: acc) t []))

(* --- operations: one request line each, with the answer it must get --- *)

type kind =
  | Sat of node
  | Contains of node * node
  | Equiv of node * node
  | Doctype of node * Doctype.t

type expect =
  | Satisfiable  (** sat, or contains/equiv direction that fails *)
  | Unsatisfiable  (** unsat or unsat_bounded, or a direction that holds *)
  | Equivalent of bool

type op = {
  name : string;
  kind : kind;
  expect : expect;
  kept : bool;
      (** a known-answer instance the fixpoint leaves [unknown] under the
          default budgets; counted as a failed operation, not as wrong *)
  qbf : Qbf.t option;  (** the QBF an encoding came from *)
}

let text = Pp.node_to_string

let doctype_json rules =
  Json.Arr
    (List.map
       (fun (r : Doctype.rule) ->
         Json.Obj
           [ ("parent", Json.Str r.parent);
             ( "at_least",
               Json.Arr
                 (List.map
                    (fun (n, l) -> Json.Arr [ Json.Num (float n); Json.Str l ])
                    r.at_least) );
             ("forbidden", Json.Arr (List.map (fun l -> Json.Str l) r.forbidden))
           ])
       rules)

let line ~id op =
  let fields =
    match op.kind with
    | Sat phi -> [ ("kind", Json.Str "sat"); ("formula", Json.Str (text phi)) ]
    | Contains (phi, psi) ->
      [ ("kind", Json.Str "contains");
        ("phi", Json.Str (text phi));
        ("psi", Json.Str (text psi))
      ]
    | Equiv (phi, psi) ->
      [ ("kind", Json.Str "equiv");
        ("phi", Json.Str (text phi));
        ("psi", Json.Str (text psi))
      ]
    | Doctype (phi, rules) ->
      [ ("kind", Json.Str "sat_under_doctype");
        ("formula", Json.Str (text phi));
        ("doctype", doctype_json rules)
      ]
  in
  Json.to_string (Json.Obj (("v", Json.Num 1.) :: ("id", Json.Str id) :: fields))

let fingerprint config =
  Service.Config.fingerprint config.Service.Config.solver

(* The cache keys a request occupies (two for an equiv). *)
let keys ~fp op =
  let key ?(kind = "sat") ?(salt = "") phi =
    snd (Cache_key.make ~kind ~salt ~config_fingerprint:fp phi)
  in
  match op.kind with
  | Sat phi -> [ key phi ]
  | Contains (phi, psi) -> [ key ~kind:"contains" (Containment.query phi psi) ]
  | Equiv (phi, psi) ->
    [ key ~kind:"contains" (Containment.query phi psi);
      key ~kind:"contains" (Containment.query psi phi)
    ]
  | Doctype (phi, rules) ->
    [ key ~kind:"sat_under_doctype" ~salt:(Doctype.canonical_string rules) phi ]

let op ?(kept = false) ?qbf name kind expect = { name; kind; expect; kept; qbf }

(* The fixed part of the decide round. The first four are the kept
   failures. *)
let fixed_decide_ops () =
  let sat name phi = op name (Sat phi) Satisfiable in
  let unsat name phi = op name (Sat phi) Unsatisfiable in
  let q name q =
    op ~qbf:q name (Sat (Qbf_encoding.encode q))
      (if Qbf.valid q then Satisfiable else Unsatisfiable)
  in
  let qv1, qi1 = qbf_family 1 and qv2, qi2 = qbf_family 2 in
  let dc2 = data_chain ~sat:true 2 in
  let two_down = B.exists (down_k 2) in
  [ op ~kept:true "data_chain_sat_4" (Sat (data_chain ~sat:true 4)) Satisfiable;
    op ~kept:true "data_chain_unsat_3" (Sat (data_chain ~sat:false 3)) Unsatisfiable;
    op ~kept:true "desc_data_unsat_1" (Sat (desc_data ~sat:false 1)) Unsatisfiable;
    op ~kept:true "reg_alternation_unsat" (Sat (reg_alternation ~sat:false)) Unsatisfiable;
    sat "child_chain_sat_3" (child_chain ~sat:true 3);
    unsat "child_chain_unsat_2" (child_chain ~sat:false 2);
    sat "data_chain_sat_1" (data_chain ~sat:true 1);
    sat "data_chain_sat_2" dc2;
    sat "data_chain_sat_3" (data_chain ~sat:true 3);
    unsat "data_chain_unsat_1" (data_chain ~sat:false 1);
    unsat "data_chain_unsat_2" (data_chain ~sat:false 2);
    sat "desc_data_sat_1" (desc_data ~sat:true 1);
    sat "desc_data_sat_2" (desc_data ~sat:true 2);
    sat "root_data_2" (root_data 2);
    sat "root_data_4" (root_data 4);
    sat "root_data_5" (root_data 5);
    sat "reg_alternation_sat" (reg_alternation ~sat:true);
    sat "mixed_axes_sat_2" (mixed_axes ~sat:true 2);
    unsat "mixed_axes_unsat_2" (mixed_axes ~sat:false 2);
    q "qbf_valid_1" qv1;
    q "qbf_invalid_1" qi1;
    q "qbf_valid_2" qv2;
    q "qbf_invalid_2" qi2;
    (* data_chain 2 needs a grandchild: it is contained in <down/down>,
       and equivalent to its conjunction with it *)
    op "contains_data_chain_2" (Contains (dc2, two_down)) Unsatisfiable;
    op "equiv_data_chain_2" (Equiv (dc2, And (dc2, two_down))) (Equivalent true)
  ]

(* [n] ops from [make], skipping any whose keys collide with keys
   already taken, so that every request of a round is a distinct key. *)
let distinct ~fp ~taken n make =
  let rec go acc k tries =
    if k = n then List.rev acc
    else
      let o = make k in
      if tries > 100 * n then failwith ("could not draw distinct inputs: " ^ o.name);
      let ks = keys ~fp o in
      if List.exists (Hashtbl.mem taken) ks
         || List.length (List.sort_uniq compare ks) <> List.length ks
      then go acc k (tries + 1)
      else begin
        List.iter (fun x -> Hashtbl.replace taken x ()) ks;
        go (o :: acc) (k + 1) (tries + 1)
      end
  in
  go [] 0 0

(* The sizes of the seeded part of the decide round. *)
let n_random_sat () = if !Common.tiny then 8 else 430
let n_contains_holds () = if !Common.tiny then 2 else 12
let n_contains_fails () = if !Common.tiny then 2 else 12
let n_equiv_true () = if !Common.tiny then 1 else 4
let n_equiv_false () = if !Common.tiny then 1 else 4
let n_doctype_sat () = if !Common.tiny then 2 else 12
let n_doctype_unsat () = if !Common.tiny then 1 else 3

(* In the self-check, the fixed instances that take more than a few
   milliseconds are left out, except one kept failure. *)
let tiny_skips =
  [ "data_chain_sat_4"; "data_chain_unsat_3"; "desc_data_unsat_1";
    "data_chain_sat_3"; "data_chain_unsat_2"; "root_data_5"; "qbf_valid_2";
    "qbf_invalid_2"; "contains_data_chain_2"; "equiv_data_chain_2" ]

let decide_ops ~fp ~seed =
  let st = Random.State.make [| 0xdec1de; seed |] in
  let taken = Hashtbl.create 256 in
  let fixed =
    List.filter
      (fun o -> not (!Common.tiny && List.mem o.name tiny_skips))
      (fixed_decide_ops ())
  in
  List.iter
    (fun o ->
      List.iter
        (fun k ->
          if Hashtbl.mem taken k then failwith ("duplicate fixed key: " ^ o.name);
          Hashtbl.replace taken k ())
        (keys ~fp o))
    fixed;
  let d n make = distinct ~fp ~taken n make in
  let random_sat =
    d (n_random_sat ()) (fun i ->
        op (Printf.sprintf "random_sat_%d" i) (Sat (fst (sat_formula st))) Satisfiable)
  in
  (* phi ∧ psi ⊑ phi, data-free *)
  let holds =
    d (n_contains_holds ()) (fun i ->
        let phi, _ = sat_formula ~data:false st and psi, _ = sat_formula ~data:false st in
        op (Printf.sprintf "contains_holds_%d" i) (Contains (And (phi, psi), phi))
          Unsatisfiable)
  in
  (* phi ⋢ psi with a counterexample by construction: a tree where some
     node satisfies phi but not psi *)
  let fails =
    d (n_contains_fails ()) (fun i ->
        let phi, t = sat_formula st and psi, _ = sat_formula st in
        let psi =
          if Semantics.check_somewhere t (And (phi, Not psi)) then psi
          else Not psi
        in
        op (Printf.sprintf "contains_fails_%d" i) (Contains (phi, psi)) Satisfiable)
  in
  (* distributivity: a ∧ (b ∨ c) ≡ (a ∧ b) ∨ (a ∧ c), data-free *)
  let equiv_true =
    d (n_equiv_true ()) (fun i ->
        let draw () = fst (sat_formula ~data:false st) in
        let a = draw () in
        let b = draw () in
        let c = draw () in
        op (Printf.sprintf "equiv_true_%d" i)
          (Equiv (And (a, Or (b, c)), Or (And (a, b), And (a, c))))
          (Equivalent true))
  in
  let equiv_false =
    d (n_equiv_false ()) (fun i ->
        let rec draw () =
          let phi, t = sat_formula ~data:false st and psi, _ = sat_formula ~data:false st in
          if Semantics.check_somewhere t (And (phi, Not psi)) then (phi, psi)
          else if Semantics.check_somewhere t (And (phi, psi)) then (phi, Not psi)
          else draw ()
        in
        let phi, psi = draw () in
        op (Printf.sprintf "equiv_false_%d" i) (Equiv (phi, And (phi, psi)))
          (Equivalent false))
  in
  let doctype_sat =
    d (n_doctype_sat ()) (fun i ->
        let phi, t = sat_formula st in
        op (Printf.sprintf "doctype_sat_%d" i) (Doctype (phi, rules_for_tree t))
          Satisfiable)
  in
  (* a node x with a y child, under a doctype forbidding y below x *)
  let doctype_unsat =
    d (n_doctype_unsat ()) (fun i ->
        let pick () = List.nth labels_abc (Random.State.int st 3) in
        let x = pick () in
        let y = pick () in
        let phi = B.exists (B.filter B.desc (And (B.lab x, B.exists (B.filter B.down (B.lab y))))) in
        let extra = Random.State.int st 3 in
        op (Printf.sprintf "doctype_unsat_%d" i)
          (Doctype
             ( phi,
               [ { Doctype.parent = x;
                   at_least = (if extra = 0 then [] else [ (extra, x) ]);
                   forbidden = [ y ]
                 } ] ))
          Unsatisfiable)
  in
  let all =
    Array.of_list
      (fixed @ random_sat @ holds @ fails @ equiv_true @ equiv_false
     @ doctype_sat @ doctype_unsat)
  in
  (* a seeded order, so no kind always runs first on a fresh heap *)
  for i = Array.length all - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- x
  done;
  all
