module Layout = Fs_layout.Layout
module Cell_event = Fs_trace.Cell_event
module Cell_trace = Fs_trace.Cell_trace
module Listener = Fs_trace.Listener
module Mpcache = Fs_cache.Mpcache

let vars_of prog =
  Array.of_list (List.map fst prog.Fs_ir.Ast.globals)

(* ------------------------------------------------------------------ *)
(* The address oracle: per variable id, the cell -> address map of one
   realized layout, plus the injected-pointer-cell map for indirection. *)

type oracle = {
  addr : int array array;
  extra : int array array;
  has_extra : bool;  (* some variable has injected pointer cells *)
}

let oracle layout ~vars =
  let lookup name =
    match Layout.lookup layout name with
    | vl -> vl
    | exception Not_found ->
      invalid_arg ("Replay.oracle: layout has no variable " ^ name)
  in
  let extra = Array.map (fun name -> (lookup name).Layout.extra) vars in
  {
    addr = Array.map (fun name -> (lookup name).Layout.addr) vars;
    extra;
    has_extra = Array.exists (fun ex -> Array.length ex > 0) extra;
  }

(* ------------------------------------------------------------------ *)
(* The unfused walk: every event in order, each access mapped through
   the oracle — an indirection layout interposes a pointer cell, and the
   read of the pointer happens before the data reference it redirects. *)

let walk_with o trace ~access ~other =
  let addr = o.addr and extra = o.extra in
  let data = Cell_trace.unsafe_data trace in
  for i = 0 to Cell_trace.length trace - 1 do
    let packed = Array.unsafe_get data i in
    if Cell_event.packed_is_access packed then begin
      let proc = Cell_event.packed_proc packed in
      let var = Cell_event.packed_var packed in
      let cell = Cell_event.packed_cell packed in
      let ex = extra.(var) in
      if Array.length ex > 0 && ex.(cell) >= 0 then
        access ~proc ~write:false ~addr:ex.(cell);
      access ~proc ~write:(Cell_event.packed_write packed) ~addr:addr.(var).(cell)
    end
    else other packed
  done

let walk trace ~layout ~access ~other =
  walk_with (oracle layout ~vars:(Cell_trace.vars trace)) trace ~access ~other

let replay trace ~layout ~listener:(l : Listener.t) =
  let o = oracle layout ~vars:(Cell_trace.vars trace) in
  let other packed =
    let tag = Cell_event.packed_tag packed in
    let proc = Cell_event.packed_proc packed in
    if tag = Cell_event.tag_work then
      l.work ~proc ~amount:(Cell_event.packed_amount packed)
    else if tag = Cell_event.tag_barrier_arrive then l.barrier_arrive ~proc
    else if tag = Cell_event.tag_barrier_release then l.barrier_release ()
    else if tag = Cell_event.tag_lock_wait then
      l.lock_wait ~proc
        ~addr:o.addr.(Cell_event.packed_var packed).(Cell_event.packed_cell packed)
    else if tag = Cell_event.tag_lock_grant then
      l.lock_grant ~proc
        ~addr:
          o.addr.(Cell_event.packed_var packed).(Cell_event.packed_grant_cell
                                                   packed)
        ~from:(Cell_event.packed_grant_from1 packed - 1)
    (* steals are scheduling annotations, not memory traffic: they have
       no address under any layout — the deque traffic they caused is
       already in the stream as accesses *)
  in
  walk_with o trace ~access:l.access ~other

let replay_to_sink trace ~layout ~sink =
  walk trace ~layout ~access:sink ~other:ignore

(* ------------------------------------------------------------------ *)
(* The fused hot path: packed trace -> address oracle -> cache, with no
   closure call and no per-event allocation.  Only Access events reach
   the cache — exactly what [replay_to_sink] delivers — so the two
   paths produce identical counts, and identical per-block, line and
   pair tables (property-tested over every workload). *)

(* The one fused loop: events [lo, hi) of [data] into [cache].  Every
   fused replay — in-memory, streamed block by block, or cut into
   flight-recorder intervals — runs this body.  Only indirection layouts
   inject pointer cells; when none did, the per-event pointer-read check
   is dropped from the loop. *)
let fused o cache data lo hi =
  let addr = o.addr and extra = o.extra in
  if o.has_extra then
    for i = lo to hi - 1 do
      let packed = Array.unsafe_get data i in
      if Cell_event.packed_is_access packed then begin
        let proc = Cell_event.packed_proc packed in
        let cell = Cell_event.packed_cell packed in
        let var = Cell_event.packed_var packed in
        let ex = extra.(var) in
        (* an indirection layout interposes a pointer cell: the read of
           the pointer happens before the data reference it redirects *)
        if Array.length ex > 0 && ex.(cell) >= 0 then
          Mpcache.touch cache ~proc ~write:false ~addr:ex.(cell);
        Mpcache.touch cache ~proc
          ~write:(Cell_event.packed_write packed)
          ~addr:addr.(var).(cell)
      end
    done
  else
    for i = lo to hi - 1 do
      let packed = Array.unsafe_get data i in
      if Cell_event.packed_is_access packed then
        Mpcache.touch cache
          ~proc:(Cell_event.packed_proc packed)
          ~write:(Cell_event.packed_write packed)
          ~addr:addr.(Cell_event.packed_var packed).(Cell_event.packed_cell
                                                       packed)
    done

(* The flight-recorded walk: the same kernel over interval-sized chunks,
   with all sampling work (an allocation-free ring deposit, plus a
   backward scan for the most recent access to attribute a current
   block) done once per chunk boundary, so the per-event cost of the
   recorder is exactly zero. *)
let simulate_recorded o data n ~cache ~(flight : Flight.t) =
  let bshift =
    (* block size is a power of two (enforced by Mpcache) *)
    let b = (Mpcache.config cache).Mpcache.block in
    let s = ref 0 in
    while 1 lsl !s < b do incr s done;
    !s
  in
  let counts = Mpcache.counts cache in
  let interval = Flight.interval flight in
  (* the data address of the most recent access at or before event [i];
     0 when no access has happened yet.  Off the hot path: called once
     per sample, and the scan almost always stops within a few events. *)
  let last_access_addr i =
    let rec find i =
      if i < 0 then 0
      else
        let packed = Array.unsafe_get data i in
        if Cell_event.packed_is_access packed then
          o.addr.(Cell_event.packed_var packed).(Cell_event.packed_cell packed)
        else find (i - 1)
    in
    find i
  in
  Flight.start flight;
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + interval) in
    fused o cache data !lo hi;
    lo := hi;
    (* the final partial chunk also deposits a sample, so short traces
       still record their end state *)
    Flight.sample flight ~at_event:(hi - 1) ~counts
      ~block:(last_access_addr (hi - 1) lsr bshift)
  done

let simulate ?flight trace ~layout ~cache =
  let o = oracle layout ~vars:(Cell_trace.vars trace) in
  let data = Cell_trace.unsafe_data trace in
  let n = Cell_trace.length trace in
  match flight with
  | None -> fused o cache data 0 n
  | Some flight -> simulate_recorded o data n ~cache ~flight

(* Barrier-delimited epochs: the fused loop runs up to each
   Barrier_release, then [epoch ~lo ~hi] sees the events [lo, hi) it
   just retired; the tail after the last release is an epoch too. *)
let simulate_epochs trace ~layout ~cache ~epoch =
  let o = oracle layout ~vars:(Cell_trace.vars trace) in
  let data = Cell_trace.unsafe_data trace in
  let n = Cell_trace.length trace in
  let lo = ref 0 in
  for i = 0 to n - 1 do
    if Cell_event.packed_tag (Array.unsafe_get data i)
       = Cell_event.tag_barrier_release
    then begin
      fused o cache data !lo i;
      epoch ~lo:!lo ~hi:i;
      lo := i + 1
    end
  done;
  fused o cache data !lo n;
  epoch ~lo:!lo ~hi:n

let simulate_stream stream ~layout ~cache =
  let o = oracle layout ~vars:(Cell_trace.Stream.vars stream) in
  Cell_trace.Stream.iter_chunks (fun data n -> fused o cache data 0 n) stream
