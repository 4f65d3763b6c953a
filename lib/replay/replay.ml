module Layout = Fs_layout.Layout
module Cell_event = Fs_trace.Cell_event
module Cell_trace = Fs_trace.Cell_trace
module Cell_listener = Fs_trace.Cell_listener
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

let translating o (l : Listener.t) : Cell_listener.t =
  {
    access =
      (fun ~proc ~write ~var ~cell ->
        (* an indirection layout interposes a pointer cell: the read of the
           pointer happens before the data reference it redirects *)
        let extra = o.extra.(var) in
        if Array.length extra > 0 && extra.(cell) >= 0 then
          l.Listener.access ~proc ~write:false ~addr:extra.(cell);
        l.Listener.access ~proc ~write ~addr:o.addr.(var).(cell));
    work = l.Listener.work;
    barrier_arrive = l.Listener.barrier_arrive;
    barrier_release = l.Listener.barrier_release;
    lock_wait =
      (fun ~proc ~var ~cell ->
        l.Listener.lock_wait ~proc ~addr:o.addr.(var).(cell));
    lock_grant =
      (fun ~proc ~var ~cell ~from ->
        l.Listener.lock_grant ~proc ~addr:o.addr.(var).(cell) ~from);
    (* steals are scheduling annotations, not memory traffic: they have
       no address under any layout, so the translation drops them — the
       deque traffic they caused is already in the stream as accesses *)
    steal = (fun ~thief:_ ~victim:_ ~task:_ -> ());
  }

(* ------------------------------------------------------------------ *)

let replay trace ~layout ~listener =
  let o = oracle layout ~vars:(Cell_trace.vars trace) in
  let cells = translating o listener in
  Cell_trace.deliver trace cells

let replay_to_sink trace ~layout ~sink =
  replay trace ~layout ~listener:(Listener.of_sink sink)

(* ------------------------------------------------------------------ *)
(* The fused hot path: packed trace -> address oracle -> cache, with no
   event unpacking, no listener dispatch, and no per-event allocation.
   Only Access events reach the cache — exactly what the listener path
   delivers through [Listener.of_sink], where every other hook is a
   no-op — so the two paths produce identical counts, and identical
   per-block, line and pair tables (property-tested over every
   workload). *)

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

let simulate_stream stream ~layout ~cache =
  let o = oracle layout ~vars:(Cell_trace.Stream.vars stream) in
  Cell_trace.Stream.iter_chunks (fun data n -> fused o cache data 0 n) stream
