type labels = (string * string) list

module Counter = struct
  type t = { mutable n : int }

  let incr t = t.n <- t.n + 1
  let add t k = t.n <- t.n + k
  let value t = t.n
end

module Gauge = struct
  type t = { mutable v : float }

  let set t v = t.v <- v
  let add t d = t.v <- t.v +. d
  let value t = t.v
end

module Histogram = struct
  type t = {
    bounds : float array;       (* finite upper bounds, ascending *)
    counts : int array;         (* per-bucket counts; length bounds + 1 *)
    mutable total : int;
    mutable sum : float;
  }

  let observe t v =
    let rec find i =
      if i >= Array.length t.bounds then Array.length t.bounds
      else if v <= t.bounds.(i) then i
      else find (i + 1)
    in
    let i = find 0 in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum +. v

  let count t = t.total
  let sum t = t.sum

  (* merge pre-bucketed observations (the domain pool keeps fixed-bucket
     counts rather than one float per task); [counts] are per-bucket,
     not cumulative, and must match this histogram's bucket count *)
  let absorb t ~counts ~sum =
    if Array.length counts <> Array.length t.counts then
      invalid_arg "Metrics.Histogram.absorb: bucket count mismatch";
    Array.iteri
      (fun i c ->
        t.counts.(i) <- t.counts.(i) + c;
        t.total <- t.total + c)
      counts;
    t.sum <- t.sum +. sum

  let buckets t =
    let acc = ref 0 in
    let finite =
      Array.to_list
        (Array.mapi
           (fun i b ->
             acc := !acc + t.counts.(i);
             (b, !acc))
           t.bounds)
    in
    finite @ [ (infinity, t.total) ]
end

type instrument =
  | Icounter of Counter.t
  | Igauge of Gauge.t
  | Ihist of Histogram.t

type key = { name : string; labels : labels }

type t = {
  tbl : (key, instrument) Hashtbl.t;
  help : (string, string) Hashtbl.t;  (* per metric name; first wins *)
  mutable order : key list;  (* registration order, reversed *)
}

let create () = { tbl = Hashtbl.create 64; help = Hashtbl.create 16; order = [] }

(* the process-global registry long-lived front ends accumulate into
   (pool fan-outs, CLI command timings) for [--metrics-out] *)
let global_registry = lazy (create ())
let global () = Lazy.force global_registry

let canon labels = List.sort compare labels

(* Prometheus grammar: metric names match [a-zA-Z_:][a-zA-Z0-9_:]*,
   label names [a-zA-Z_][a-zA-Z0-9_]* (no colons).  A bad name renders
   an exposition no scraper will parse, so reject it at registration
   where the stack trace still points at the culprit. *)
let name_ok ~label s =
  let body i c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
    | '0' .. '9' -> i > 0
    | ':' -> not label
    | _ -> false
  in
  s <> ""
  && (let ok = ref true in
      String.iteri (fun i c -> if not (body i c) then ok := false) s;
      !ok)

let check_names name labels =
  if not (name_ok ~label:false name) then
    invalid_arg
      (Printf.sprintf
         "Metrics: invalid metric name %S (must match [a-zA-Z_:][a-zA-Z0-9_:]*)"
         name);
  List.iter
    (fun (k, _) ->
      if not (name_ok ~label:true k) then
        invalid_arg
          (Printf.sprintf
             "Metrics: invalid label name %S on metric %S (must match \
              [a-zA-Z_][a-zA-Z0-9_]*)"
             k name))
    labels

let register t name labels help make select =
  check_names name labels;
  (match help with
   | Some h when not (Hashtbl.mem t.help name) -> Hashtbl.add t.help name h
   | _ -> ());
  let key = { name; labels = canon labels } in
  match Hashtbl.find_opt t.tbl key with
  | Some inst -> select inst
  | None ->
    let inst = make () in
    Hashtbl.add t.tbl key inst;
    t.order <- key :: t.order;
    select inst

let type_error name = invalid_arg ("Metrics: " ^ name ^ " registered with another type")

let counter t ?(labels = []) ?help name =
  register t name labels help
    (fun () -> Icounter { Counter.n = 0 })
    (function Icounter c -> c | _ -> type_error name)

let gauge t ?(labels = []) ?help name =
  register t name labels help
    (fun () -> Igauge { Gauge.v = 0.0 })
    (function Igauge g -> g | _ -> type_error name)

let default_buckets = [ 1.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. ]

let histogram t ?(labels = []) ?help ?(buckets = default_buckets) name =
  let bounds = Array.of_list buckets in
  register t name labels help
    (fun () ->
      Ihist
        { Histogram.bounds; counts = Array.make (Array.length bounds + 1) 0;
          total = 0; sum = 0.0 })
    (function Ihist h -> h | _ -> type_error name)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

let sorted_entries t =
  List.map (fun key -> (key, Hashtbl.find t.tbl key)) (List.rev t.order)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let to_json t =
  Json.List
    (List.map
       (fun ({ name; labels }, inst) ->
         let base = [ ("name", Json.String name); ("labels", labels_json labels) ] in
         match inst with
         | Icounter c ->
           Json.Obj
             (base @ [ ("type", Json.String "counter"); ("value", Json.Int (Counter.value c)) ])
         | Igauge g ->
           Json.Obj
             (base @ [ ("type", Json.String "gauge"); ("value", Json.float (Gauge.value g)) ])
         | Ihist h ->
           Json.Obj
             (base
              @ [ ("type", Json.String "histogram");
                  ("count", Json.Int (Histogram.count h));
                  ("sum", Json.float (Histogram.sum h));
                  ("buckets",
                   Json.List
                     (List.map
                        (fun (le, n) ->
                          Json.Obj
                            [ ("le",
                               if Float.is_finite le then Json.float le
                               else Json.String "+Inf");
                              ("count", Json.Int n) ])
                        (Histogram.buckets h))) ]))
       (sorted_entries t))

(* Prometheus label-value escaping: exactly backslash, double quote, and
   newline (the exposition format's three escapes).  OCaml's [%S] is close
   but wrong — it also rewrites tabs and non-ASCII bytes to [\ddd] decimal
   escapes no Prometheus parser understands. *)
let escape_label v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf {|\\|}
      | '"' -> Buffer.add_string buf {|\"|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* HELP text escaping: the exposition format escapes exactly backslash
   and newline there (label values additionally escape the quote). *)
let escape_help v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf {|\\|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* Prometheus float formatting: %g matches what client libraries emit
   (1e+06 and friends parse fine), but +Inf must be spelled that way *)
let prom_float v =
  if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Printf.sprintf "%g" v

let render t =
  let buf = Buffer.create 1024 in
  let label_text labels =
    match labels with
    | [] -> ""
    | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
             labels)
      ^ "}"
  in
  (* the exposition format groups a metric's series under one # HELP and
     # TYPE header; sorted_entries already collates label sets by name *)
  let last_name = ref None in
  let header name inst =
    if !last_name <> Some name then begin
      last_name := Some name;
      (match Hashtbl.find_opt t.help name with
       | Some h ->
         Buffer.add_string buf
           (Printf.sprintf "# HELP %s %s\n" name (escape_help h))
       | None -> ());
      let ty =
        match inst with
        | Icounter _ -> "counter"
        | Igauge _ -> "gauge"
        | Ihist _ -> "histogram"
      in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name ty)
    end
  in
  List.iter
    (fun ({ name; labels }, inst) ->
      header name inst;
      match inst with
      | Icounter c ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" name (label_text labels) (Counter.value c))
      | Igauge g ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" name (label_text labels)
             (prom_float (Gauge.value g)))
      | Ihist h ->
        List.iter
          (fun (le, cum) ->
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" name
                 (label_text (labels @ [ ("le", prom_float le) ]))
                 cum))
          (Histogram.buckets h);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" name (label_text labels)
             (prom_float (Histogram.sum h)));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" name (label_text labels)
             (Histogram.count h)))
    (sorted_entries t);
  Buffer.contents buf

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render t))
