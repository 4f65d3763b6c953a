(* Shared helpers for the test suites. *)

(* the CLI, next to the test runner in the build tree wherever it is run
   from (the test stanza depends on it) *)
let cli_exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "falseshare_cli.exe" ]

(* exit code, stdout and stderr of [cli_exe args] *)
let run_cli args =
  let out = Filename.temp_file "fscli" ".out" and err = Filename.temp_file "fscli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli_exe)
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote out) (Filename.quote err))
  in
  let read f = Fun.protect ~finally:(fun () -> Sys.remove f) (fun () -> In_channel.with_open_bin f In_channel.input_all) in
  let o = read out in
  (code, o, read err)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else
    let rec go i =
      if i + nn > nh then false
      else if String.sub haystack i nn = needle then true
      else go (i + 1)
    in
    go 0

let check_contains what haystack needle =
  if not (contains haystack needle) then
    Alcotest.fail (Printf.sprintf "%s: expected %S in %S" what needle haystack)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition: a hand-written checker of the format's
   structural rules, independent of the renderer — it re-parses the text
   from scratch, so a renderer bug can't hide behind its own output.
   Shared between the obs suite (registry render) and the serve suite
   (the daemon's GET /metrics). *)

type parsed_sample = { ps_name : string; ps_labels : (string * string) list;
                       ps_value : string }

let parse_exposition what text =
  let fail msg = Alcotest.fail (Printf.sprintf "%s: %s" what msg) in
  let types = Hashtbl.create 8 in
  let helps = Hashtbl.create 8 in
  let samples = ref [] in
  let parse_labels s =
    (* k1="v1",k2="v2" — label values in these tests contain no escapes *)
    if s = "" then []
    else
      List.map
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i ->
            let k = String.sub kv 0 i in
            let v = String.sub kv (i + 1) (String.length kv - i - 1) in
            let n = String.length v in
            if n < 2 || v.[0] <> '"' || v.[n - 1] <> '"' then
              fail ("unquoted label value in " ^ s);
            (k, String.sub v 1 (n - 2))
          | None -> fail ("bad label pair " ^ kv))
        (String.split_on_char ',' s)
  in
  (* the metric a sample line belongs to: its own name, or — for the
     histogram series — the name with _bucket/_sum/_count stripped *)
  let base_of name =
    if Hashtbl.mem types name then name
    else
      let try_suffix sfx =
        let n = String.length name and m = String.length sfx in
        if n > m && String.sub name (n - m) m = sfx then begin
          let b = String.sub name 0 (n - m) in
          if Hashtbl.find_opt types b = Some "histogram" then Some b else None
        end
        else None
      in
      match List.find_map try_suffix [ "_bucket"; "_sum"; "_count" ] with
      | Some b -> b
      | None -> fail ("sample " ^ name ^ " has no preceding # TYPE")
  in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line > 1 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "HELP" :: name :: _ :: _ ->
          if Hashtbl.mem types name then fail ("HELP after TYPE for " ^ name);
          Hashtbl.replace helps name ()
        | "#" :: "TYPE" :: name :: [ ty ] ->
          if not (List.mem ty [ "counter"; "gauge"; "histogram" ]) then
            fail ("unknown type " ^ ty);
          if Hashtbl.mem types name then fail ("duplicate TYPE for " ^ name);
          Hashtbl.replace types name ty
        | _ -> fail ("malformed comment line: " ^ line)
      end
      else begin
        match String.rindex_opt line ' ' with
        | None -> fail ("malformed sample line: " ^ line)
        | Some sp ->
          let head = String.sub line 0 sp in
          let value = String.sub line (sp + 1) (String.length line - sp - 1) in
          let name, labels =
            match String.index_opt head '{' with
            | None -> (head, [])
            | Some lb ->
              if head.[String.length head - 1] <> '}' then
                fail ("unterminated label set: " ^ head);
              ( String.sub head 0 lb,
                parse_labels
                  (String.sub head (lb + 1) (String.length head - lb - 2)) )
          in
          ignore (base_of name);
          samples := { ps_name = name; ps_labels = labels; ps_value = value }
                     :: !samples
      end)
    (String.split_on_char '\n' text);
  (types, helps, List.rev !samples)

let find_sample what samples name labels =
  match
    List.find_opt
      (fun s ->
        s.ps_name = name
        && List.sort compare s.ps_labels = List.sort compare labels)
      samples
  with
  | Some s -> s.ps_value
  | None ->
    Alcotest.fail
      (Printf.sprintf "%s: no sample %s{%s}" what name
         (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)))

(* the structural rules of one histogram's series under one label set *)
let check_histogram what samples name labels =
  let le_of s = List.assoc "le" s.ps_labels in
  let others s = List.remove_assoc "le" s.ps_labels in
  let buckets =
    List.filter
      (fun s ->
        s.ps_name = name ^ "_bucket"
        && List.mem_assoc "le" s.ps_labels
        && List.sort compare (others s) = List.sort compare labels)
      samples
  in
  if buckets = [] then Alcotest.fail (what ^ ": no _bucket series");
  let les = List.map le_of buckets in
  (match List.rev les with
   | "+Inf" :: _ -> ()
   | _ -> Alcotest.fail (what ^ ": last bucket is not le=\"+Inf\""));
  let numeric =
    List.map
      (fun le -> if le = "+Inf" then infinity else float_of_string le)
      les
  in
  if List.sort compare numeric <> numeric then
    Alcotest.fail (what ^ ": bucket bounds not ascending");
  let cums = List.map (fun s -> int_of_string s.ps_value) buckets in
  if List.sort compare cums <> cums then
    Alcotest.fail (what ^ ": cumulative counts decrease");
  let count =
    int_of_string (find_sample what samples (name ^ "_count") labels)
  in
  Alcotest.(check int) (what ^ ": +Inf bucket = _count") count
    (List.nth cums (List.length cums - 1));
  ignore (float_of_string (find_sample what samples (name ^ "_sum") labels))

(* ------------------------------------------------------------------ *)
(* An independent oracle for Mpcache's tracking tables.  It watches the
   boxed outcomes of an untracked cache and re-derives the per-block
   counts and the line lifetimes its own way: hashtables, and each
   line's write history kept whole and read off at the end. *)

module Oracle = struct
  module C = Fs_cache.Mpcache

  type oline = { c : C.counts; mutable rmask : int; mutable wmask : int;
                 mutable hist : (int * bool) list;  (* writer, invalidated; newest first *)
                 wwords : int array }

  type t = { block : int; cache : C.t; tbl : (int, oline) Hashtbl.t }

  let create cache = { block = (C.config cache).C.block; cache; tbl = Hashtbl.create 64 }

  let sink o ~proc ~write ~addr =
    let b = addr / o.block in
    let l =
      match Hashtbl.find_opt o.tbl b with
      | Some l -> l
      | None ->
        let l = { c = C.zero_counts (); rmask = 0; wmask = 0; hist = [];
                  wwords = Array.make (o.block / 4) 0 } in
        Hashtbl.add o.tbl b l; l
    in
    let c = l.c and bit = 1 lsl proc in
    let inv =
      match C.access o.cache ~proc ~write ~addr with
      | C.Hit -> 0
      | C.Upgrade { invalidated } -> c.upgrades <- c.upgrades + 1; invalidated
      | C.Miss { info; invalidated } ->
        (match info.C.kind with
         | C.Cold -> c.cold <- c.cold + 1
         | C.Replacement -> c.repl <- c.repl + 1
         | C.True_sharing -> c.true_sh <- c.true_sh + 1
         | C.False_sharing -> c.false_sh <- c.false_sh + 1);
        invalidated
    in
    c.invalidations <- c.invalidations + inv;
    if write then begin
      c.writes <- c.writes + 1;
      l.wmask <- l.wmask lor bit;
      let w = addr mod o.block / 4 in
      l.wwords.(w) <- l.wwords.(w) lor bit;
      l.hist <- (proc, inv > 0) :: l.hist
    end
    else (c.reads <- c.reads + 1; l.rmask <- l.rmask lor bit)

  let bits m = List.length (List.filter (fun p -> m land (1 lsl p) <> 0) (List.init 62 Fun.id))
  let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a
  let longest p a =  (* longest streak of elements satisfying [p] *)
    fst (Array.fold_left (fun (best, cur) x ->
        let cur = if p x then cur + 1 else 0 in (max best cur, cur)) (0, 0) a)

  let line b l =
    let h = Array.of_list (List.rev l.hist) in
    let w = Array.map fst h in
    (* moved.(i): write i + 1 changed the writer *)
    let moved = Array.init (max 0 (Array.length w - 1)) (fun i -> w.(i + 1) <> w.(i)) in
    let run = longest Fun.id moved in
    { C.line_block = b; line_reads = l.c.reads; line_writes = Array.length w;
      writers = bits l.wmask; readers = bits l.rmask; migrations = count Fun.id moved;
      pingpong = count Fun.id (Array.init (max 0 (Array.length w - 2)) (fun i ->
          moved.(i + 1) && w.(i + 2) = w.(i)));
      max_run = (if run = 0 then 0 else run + 1);
      max_inval_chain = longest snd h;
      written_words = count (( <> ) 0) l.wwords;
      shared_words = count (fun m -> bits m >= 2) l.wwords;
      word_writers = Array.copy l.wwords }

  let sorted o =
    List.sort (fun (a, _) (b, _) -> compare a b) (Hashtbl.fold (fun b l acc -> (b, l) :: acc) o.tbl [])
  let per_block o = List.map (fun (b, l) -> (b, C.copy_counts l.c)) (sorted o)
  let lines o = List.map (fun (b, l) -> line b l) (sorted o)
end
