(* Shared plumbing of the benchmark: clocks, sample statistics, the
   result line, the per-run work directory and process memory. *)

let now_ms = Xpds.Trace.now_ms

(* The self-check mode: tiny inputs, every workload, checker and traced
   run in seconds ([--tiny], run by [--selfcheck]). *)
let tiny = ref false

let time_ms f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* Nearest-rank quantile of an unsorted sample; [q] in [0, 1]. *)
let quantile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median samples = quantile samples 0.5
let sum = List.fold_left ( +. ) 0.
let mean = function [] -> 0. | l -> sum l /. float (List.length l)

(* The tail percentile a workload reports: the largest [q] of the form
   1 - k/100 (or p99.9) that still leaves at least ten samples above it
   at the workload's guaranteed sample count. Fixed per workload so that
   two runs report the same percentile. *)
let tail_sample samples ~q =
  let n = List.length samples in
  if float n *. (1. -. q) < 10. -. 1e-9 && not !tiny then
    failwith
      (Printf.sprintf "tail percentile p%g needs %d samples, have %d"
         (q *. 100.)
         (int_of_float (Float.ceil (10. /. (1. -. q))))
         n);
  quantile samples q

(* The mean of the slowest [share] of the samples (the expected
   shortfall), over at least ten samples. *)
let slowest_mean samples ~share =
  let k = int_of_float (share *. float (List.length samples)) in
  if k < 10 && not !tiny then failwith "slowest_mean: fewer than ten samples";
  mean (List.filteri (fun i _ -> i < max 1 k) (List.sort (fun a b -> compare b a) samples))

(* --- the result line --- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (* human-readable lines printed before the result *)
}

let print_outcome o =
  List.iter print_endline o.notes;
  let metrics =
    Xpds.Json.Obj
      (List.map
         (fun x ->
           ( x.name,
             Xpds.Json.Obj
               [ ("value", Xpds.Json.Num x.value);
                 ("unit", Xpds.Json.Str x.unit_)
               ] ))
         o.metrics)
  in
  print_endline
    (Xpds.Json.to_string
       (Xpds.Json.Obj
          [ ("correct", Xpds.Json.Bool o.correct);
            ("attempted", Xpds.Json.Num (float o.attempted));
            ("failed", Xpds.Json.Num (float o.failed));
            ("metrics", metrics)
          ]))

(* --- the work directory: store files live here, inside the checkout --- *)

let work_dir = ".perfbench-work"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir name =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
  let d = Filename.concat work_dir (Printf.sprintf "%s.%d" name (Unix.getpid ())) in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let json_of_line line =
  match Xpds.Json.parse line with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "unparsable response %S: %s" line e)

let str_field name v =
  match Xpds.Json.member name v with
  | Some (Xpds.Json.Str s) -> Some s
  | _ -> None

let num_field name v =
  match Xpds.Json.member name v with
  | Some (Xpds.Json.Num x) -> Some x
  | _ -> None
