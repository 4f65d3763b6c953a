type span = {
  id : int;
  parent : int;
  depth : int;
  name : string;
  mutable attrs : (string * string) list;
  start_s : float;
  mutable dur_s : float;        (* -1.0 while open *)
  start_alloc : float;
  mutable alloc_bytes : float;  (* -1.0 while open *)
}

type t = {
  mutable rev_spans : span list;  (* in reverse start order *)
  mutable count : int;
  mutable stack : span list;      (* open spans, innermost first *)
  epoch : float;
}

let create () =
  { rev_spans = []; count = 0; stack = []; epoch = Unix.gettimeofday () }

let now t = Unix.gettimeofday () -. t.epoch

let start t ?(attrs = []) name =
  let parent, depth =
    match t.stack with [] -> (-1, 0) | s :: _ -> (s.id, s.depth + 1)
  in
  let sp =
    { id = t.count; parent; depth; name; attrs; start_s = now t; dur_s = -1.0;
      start_alloc = Gc.allocated_bytes (); alloc_bytes = -1.0 }
  in
  t.count <- t.count + 1;
  t.rev_spans <- sp :: t.rev_spans;
  t.stack <- sp :: t.stack;
  sp

let finish t sp =
  (match t.stack with
   | s :: rest when s == sp -> t.stack <- rest
   | _ -> invalid_arg "Span.finish: span is not the innermost open span");
  sp.dur_s <- now t -. sp.start_s;
  sp.alloc_bytes <- Gc.allocated_bytes () -. sp.start_alloc

let with_ t ?attrs name f =
  let sp = start t ?attrs name in
  match f () with
  | r ->
    finish t sp;
    r
  | exception e ->
    sp.attrs <- sp.attrs @ [ ("error", Printexc.to_string e) ];
    finish t sp;
    raise e

let attr t key value =
  match t.stack with
  | [] -> ()
  | sp :: _ -> sp.attrs <- sp.attrs @ [ (key, value) ]

let spans t = List.rev t.rev_spans

(* durations of still-open spans read as "elapsed so far", so a live
   recorder (the CLI's root command span, say) renders sensibly *)
let duration t sp = if sp.dur_s >= 0. then sp.dur_s else now t -. sp.start_s

let allocated t sp =
  ignore t;
  if sp.alloc_bytes >= 0. then sp.alloc_bytes
  else Gc.allocated_bytes () -. sp.start_alloc

(* ------------------------------------------------------------------ *)
(* The ambient recorder: one per domain, so worker domains of the pool
   never race the caller's recorder — on a domain with no recorder
   installed, [timed] is a tail call to the thunk and [note] a no-op.  *)

let ambient : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let set_current o = Domain.DLS.set ambient o
let current () = Domain.DLS.get ambient

let timed ?attrs name f =
  match Domain.DLS.get ambient with
  | None -> f ()
  | Some t -> with_ t ?attrs name f

let note key value =
  match Domain.DLS.get ambient with None -> () | Some t -> attr t key value

let stage name ~events f =
  match Domain.DLS.get ambient with
  | None -> f ()
  | Some t ->
    with_ t name (fun () ->
        let r = f () in
        attr t "events" (string_of_int (events r));
        r)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

(* children of each span, in start order, via one pass over the list *)
let children_of t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let siblings = Option.value ~default:[] (Hashtbl.find_opt tbl sp.parent) in
      Hashtbl.replace tbl sp.parent (sp :: siblings))
    t.rev_spans;
  (* rev_spans is reversed, so each bucket came out in start order *)
  fun id -> Option.value ~default:[] (Hashtbl.find_opt tbl id)

let to_json t =
  let children = children_of t in
  let rec build sp =
    Json.Obj
      ([ ("id", Json.Int sp.id);
         ("name", Json.String sp.name);
         ("start_s", Json.float sp.start_s);
         ("wall_s", Json.float (duration t sp));
         ("alloc_bytes", Json.float (allocated t sp)) ]
       @ (if sp.attrs = [] then []
          else
            [ ("attrs",
               Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) sp.attrs)) ])
       @
       match children sp.id with
       | [] -> []
       | kids -> [ ("children", Json.List (List.map build kids)) ])
  in
  Json.List (List.map build (children (-1)))

let last t name = List.find_opt (fun sp -> sp.name = name) t.rev_spans

let children t sp = children_of t sp.id

let stage_events sp =
  Option.value ~default:0
    (Option.bind (List.assoc_opt "events" sp.attrs) int_of_string_opt)

let stage_table t stages =
  let total = List.fold_left (fun acc sp -> acc +. duration t sp) 0.0 stages in
  let header = [ "phase"; "time"; "share"; "events" ] in
  let body =
    List.map
      (fun sp ->
        let secs = duration t sp and events = stage_events sp in
        [ sp.name;
          Printf.sprintf "%.1f ms" (secs *. 1000.0);
          (if total > 0.0 then Fs_util.Table.pct (secs /. total) else "-");
          (if events > 0 then string_of_int events else "-") ])
      stages
  in
  Fs_util.Table.render ~header body

let stages_to_json t stages =
  Json.List
    (List.map
       (fun sp ->
         Json.Obj
           [ ("phase", Json.String sp.name);
             ("seconds", Json.float (duration t sp));
             ("events", Json.Int (stage_events sp)) ])
       stages)

let human_bytes b =
  if b >= 1048576.0 then Printf.sprintf "%.1f MB" (b /. 1048576.0)
  else if b >= 1024.0 then Printf.sprintf "%.1f KB" (b /. 1024.0)
  else Printf.sprintf "%.0f B" b

let render t =
  let buf = Buffer.create 512 in
  let children = children_of t in
  let rec walk sp =
    let label = String.make (2 * sp.depth) ' ' ^ sp.name in
    Buffer.add_string buf
      (Printf.sprintf "%-40s  %9.1f ms  %10s%s\n" label
         (duration t sp *. 1000.0)
         (human_bytes (allocated t sp))
         (match sp.attrs with
          | [] -> ""
          | attrs ->
            "  "
            ^ String.concat " "
                (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) attrs)));
    List.iter walk (children sp.id)
  in
  List.iter walk (children (-1));
  Buffer.contents buf

let to_timeline t =
  let tl = Timeline.create ~nprocs:1 in
  List.iter
    (fun sp ->
      Timeline.slice tl ~name:sp.name
        ~ts:(int_of_float (sp.start_s *. 1e6))
        ~dur:(int_of_float (duration t sp *. 1e6))
        ~tid:0
        ~args:
          (("alloc_bytes", Json.float (allocated t sp))
           :: List.map (fun (k, v) -> (k, Json.String v)) sp.attrs))
    (spans t);
  tl

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel ~compact:false oc (to_json t);
      output_char oc '\n')
