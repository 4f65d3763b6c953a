(** Per-data-structure miss attribution.

    The paper's central validation is that the static analysis identifies
    the data structures responsible for most false-sharing misses.  This
    module closes that loop from the dynamic side: it records one
    execution, replays it fused into a cache with per-block tracking,
    and folds the per-block counters
    back onto the shared globals through the layout's address map, so the
    simulator's verdict can be compared with the compiler's report
    structure by structure. *)

val pointer_owner : string
(** The pseudo-variable owning injected indirection-pointer cells. *)

val unmapped_owner : string
(** The pseudo-variable owning blocks no global maps to. *)

(** The variable owning the most cells of a block, and the lowest and
    highest index of its cells there.  [cell_lo = cell_hi = -1] when
    the owner is a pseudo-variable. *)
type owner = { var : string; cell_lo : int; cell_hi : int }

val owners :
  Fs_ir.Ast.program -> Fs_layout.Layout.t -> block:int -> int array ->
  owner array
(** [owners prog layout ~block blocks] is the owner of each of [blocks]
    (in any order, repeats allowed), in one pass over the layout's
    addresses — the attribution rule shared with {!Blame}, {!Hotlines}
    and the repair loop.  Ties on cell count resolve the same way on
    every run. *)

type row = {
  var : string;
      (** a shared global, or ["(indirection pointers)"] for the pointer
          cells a transformation injected *)
  counts : Fs_cache.Mpcache.counts;
  blocks : int;  (** distinct cache blocks the variable's cells occupy *)
}

val attribute :
  ?cache_bytes:int ->
  ?assoc:int ->
  ?sched:Fs_sched.Sched.config ->
  Fs_ir.Ast.program ->
  Fs_layout.Plan.t ->
  nprocs:int ->
  block:int ->
  row list
(** Rows sorted by false-sharing misses, heaviest first.  A block shared
    by several variables (the packed default layout) is attributed to the
    variable owning the most cells in it. *)

val render : row list -> string
