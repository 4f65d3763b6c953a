type t = proc:int -> write:bool -> addr:int -> unit
