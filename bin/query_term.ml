(* The query field specs folded into Cmdliner terms.  A term only
   collects each field's raw text; the query layer validates and
   defaults it, and its error becomes Cmdliner's usage error (exit
   124), so the CLI and the daemon share every rule and message. *)

open Cmdliner
module Q = Fs_query.Query

let usage = function Ok v -> `Ok v | Error e -> `Error (true, Q.message Q.Cli e)

(* the raw value of one field, as the command line gives it; a
   [required] positional is Cmdliner's to insist on *)
let raw ?(at = 0) ?(required = true) k (s : Q.spec) =
  let text t = Term.(const (Option.map (fun v -> Q.Arg v)) $ t) in
  match s.Q.cli with
  | Q.Http_only -> None
  | Q.Positional ->
    let a = Arg.(pos at (some string) None & info [] ~docv:s.docv ~doc:s.doc) in
    Some (text (if required then Term.(const Option.some $ Arg.required a) else Arg.value a))
  | Q.Switch names ->
    Some
      Term.(
        const (fun b -> if b then Some (Q.Arg "true") else None)
        $ Arg.(value & flag & info names ~doc:s.doc))
  | Q.Flags names ->
    Some
      (text
         Arg.(value & opt (some ?none:(s.absent k) string) None & info names ~docv:s.docv ~doc:s.doc))

let term ?at (f : _ Q.field) =
  match raw ?at None f.Q.spec with
  | Some t -> t
  | None -> invalid_arg ("Query_term: " ^ f.spec.name ^ " is not a CLI field")

(* one validated field of a command outside the query layer *)
let value ?at f = Term.(ret (const (fun r -> usage (Q.resolve f None r)) $ term ?at f))

(* the same, [None] when absent *)
let opt f =
  let parse = function
    | None -> `Ok None
    | Some r -> usage (Result.map Option.some (Q.parse f r))
  in
  Term.(ret (const parse $ term f))

(* the field under other CLI names *)
let renamed ?doc names (f : _ Q.field) =
  { f with Q.spec = { f.spec with cli = Q.Flags names; doc = Option.value doc ~default:f.spec.doc } }

(* every field a query takes, as (JSON name, raw value) pairs *)
let raws ?required k =
  List.fold_left
    (fun acc (s : Q.spec) ->
      match raw ?required (Some k) s with
      | None -> acc
      | Some t ->
        Term.(const (fun l r -> match r with Some r -> (s.name, r) :: l | None -> l) $ acc $ t))
    (Term.const []) (Q.fields k)

let query k = Term.(ret (const (fun rs -> usage (Q.of_fields k rs)) $ raws k))
