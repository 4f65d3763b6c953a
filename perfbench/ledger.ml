(* The per-layer ledger: self time and allocation per layer, plus named
   counters, kept from the benchmark's side of each public call.

   [span layer f] runs [f]; when tracing is on it charges [f]'s wall time
   and allocated words to [layer], minus whatever nested spans charged to
   their own layers, so every layer's figure is a self time and the
   figures add up without double counting.  With tracing off [span] is a
   plain call — the end-to-end numbers are always taken that way. *)

let now = Unix.gettimeofday

let tracing = ref false

(* words allocated by this domain so far: minor + major - promoted, so a
   word promoted out of the minor heap is counted once *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type frame = { mutable child_s : float; mutable child_w : float }

let self_s : (string, float) Hashtbl.t = Hashtbl.create 32
let self_w : (string, float) Hashtbl.t = Hashtbl.create 32
let counters : (string, float) Hashtbl.t = Hashtbl.create 32
let stack : frame list ref = ref []

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)

let count k v = bump counters k v
let counter k = get counters k
let layer_s k = get self_s k
let layer_words k = get self_w k

(* charge an interval measured elsewhere (a side measurement that splits a
   compound call) straight to a layer *)
let charge layer ~s ~w =
  bump self_s layer s;
  bump self_w layer w

let span layer f =
  if not !tracing then f ()
  else begin
    let fr = { child_s = 0.; child_w = 0. } in
    let parent = !stack in
    stack := fr :: parent;
    let w0 = words () and t0 = now () in
    let finish () =
      let dt = now () -. t0 and dw = words () -. w0 in
      stack := parent;
      charge layer ~s:(dt -. fr.child_s) ~w:(dw -. fr.child_w);
      match parent with
      | p :: _ ->
        p.child_s <- p.child_s +. dt;
        p.child_w <- p.child_w +. dw
      | [] -> ()
    in
    Fun.protect ~finally:finish f
  end

(* move the cost [(s, w)] of one piece of a compound call, timed alone
   beside the query, from the call's layer to the piece's *)
let move ~from ~into (s, w) =
  charge into ~s ~w;
  charge from ~s:(-.s) ~w:(-.w)

(* the same measurement as [span], returned instead of charged: for side
   measurements whose time is later moved between layers *)
let measure f =
  let w0 = words () and t0 = now () in
  let r = f () in
  (r, now () -. t0, words () -. w0)

let reset () =
  Hashtbl.reset self_s;
  Hashtbl.reset self_w;
  Hashtbl.reset counters;
  stack := []

let total_self_s () = Hashtbl.fold (fun _ v acc -> acc +. v) self_s 0.

(* ------------------------------------------------------------------ *)
(* Host speed                                                           *)

(* A fixed piece of work owned by the benchmark — hashtable lookups and
   in-place updates, strided array updates — timed around every query.
   The shared 2-vCPU hosts this benchmark runs on alternate between a
   fast phase and one about 1.6x slower, on a scale of seconds to
   minutes; this loop slows with them, while the ratio of a query's time
   to it holds within a few percent.  The end-to-end times are reported
   as [wall * reference_s / calibration]: milliseconds at the speed where
   this loop takes [reference_s].

   The loop allocates nothing (its table and array are made once, and
   every key it replaces is already bound), so the garbage a query leaves
   and the GC settings of the program under test cannot change its time;
   callers run it on a collected heap as well. *)
let calib_table : (int, int) Hashtbl.t = Hashtbl.create 1024
let calib_array = Array.make 20_000 0
let () = for i = 0 to 1023 do Hashtbl.replace calib_table i i done

let calibration () =
  let t0 = now () in
  let h = calib_table and a = calib_array in
  let acc = ref 0 in
  for i = 0 to 10_000 do
    Hashtbl.replace h (i land 1023) i;
    acc := !acc + Hashtbl.find h ((i * 7) land 1023)
  done;
  for r = 1 to 10 do
    for i = 0 to 19_999 do
      a.(i) <- a.(((i * 31) + r) mod 20_000) + i
    done
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* the loop's time in the fast phase of the 2-vCPU x86 host the
   benchmark was calibrated on *)
let reference_s = 1.2e-3

(* ------------------------------------------------------------------ *)
(* Order statistics                                                     *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* linear interpolation between closest ranks *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile (sorted xs) 0.5

(* the highest percentile, at most the 90th, that leaves at least ten
   samples above it *)
let tail_quantile n = Float.min 0.9 (1. -. (10. /. float_of_int (max n 11)))

(* the factor that takes host seconds measured between [before] and
   [after] — three calibrations each — to reference seconds *)
let calibrations () =
  Gc.full_major ();
  List.init 3 (fun _ -> calibration ())
let scale ~before ~after = reference_s /. median (before @ after)

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
