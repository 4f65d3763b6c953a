type t = {
  access : proc:int -> write:bool -> addr:int -> unit;
  work : proc:int -> amount:int -> unit;
  barrier_arrive : proc:int -> unit;
  barrier_release : unit -> unit;
  lock_wait : proc:int -> addr:int -> unit;
  lock_grant : proc:int -> addr:int -> from:int -> unit;
}

let null =
  {
    access = (fun ~proc:_ ~write:_ ~addr:_ -> ());
    work = (fun ~proc:_ ~amount:_ -> ());
    barrier_arrive = (fun ~proc:_ -> ());
    barrier_release = (fun () -> ());
    lock_wait = (fun ~proc:_ ~addr:_ -> ());
    lock_grant = (fun ~proc:_ ~addr:_ ~from:_ -> ());
  }
