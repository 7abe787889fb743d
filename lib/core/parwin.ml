(* Domain-parallel window evaluation: replica pool + round protocol.

   Shared-nothing by construction: each worker builds its replica (circuit
   copy, FULLSSTA annotation, window) inside its own domain and is the only
   domain that ever touches it. The master communicates through two
   mutex-guarded queues per worker (requests in, replies out) carrying only
   immutable values: gate ids, cells from the shared immutable library, and
   verdict records. The master's circuit is read by workers exactly once —
   during replica construction, before [create] returns — and the master
   does not mutate it until [create] has collected every Ready. *)

let c_rounds = Obs.Counters.make "parwin.rounds"
let c_evaluated = Obs.Counters.make "parwin.windows.evaluated"
let c_discarded = Obs.Counters.make "parwin.windows.discarded"
let c_fallback = Obs.Counters.make "parwin.fallback"

(* Per-lane distribution counters (lane 0 = master). These are *not*
   work-conservation counters: the lane split depends on the domain count.
   Lanes beyond 7 fold into the last bucket. *)
let lane_buckets = 8

let c_lane =
  Array.init lane_buckets (fun i ->
      Obs.Counters.make (Printf.sprintf "parwin.windows.lane%d" i))

let chunk_size = 16

type verdict = {
  gate : Netlist.Circuit.id;
  best : Cells.Cell.t;
  co_resizes : (Netlist.Circuit.id * Cells.Cell.t) list;
  best_cost : float;
  current_cost : float;
}

type params = {
  lib : Cells.Library.t;
  full_cfg : Ssta.Fullssta.config;
  mode : Window.mode;
  area_weight : float;
  depth : int;
  model : Variation.Model.t;
  objective : Objective.t;
  paranoid : bool;
}

type op =
  | Commit of (Netlist.Circuit.id * Cells.Cell.t) list
  | Refresh of Netlist.Circuit.id list

type request = Eval of op list * Netlist.Circuit.id array | Quit
type reply = Ready | Verdicts of verdict array | Crashed of string

(* Unbounded mutex+condition queue. [put] never blocks, so shutdown and
   crash paths cannot deadlock; depth never exceeds 2 in practice (one
   request or reply in flight, plus a trailing Quit). *)
module Chan = struct
  type 'a t = { m : Mutex.t; cv : Condition.t; q : 'a Queue.t }

  let create () = { m = Mutex.create (); cv = Condition.create (); q = Queue.create () }

  let put c x =
    Mutex.protect c.m (fun () ->
        Queue.add x c.q;
        Condition.broadcast c.cv)

  let take c =
    Mutex.protect c.m (fun () ->
        while Queue.is_empty c.q do
          Condition.wait c.cv c.m
        done;
        Queue.pop c.q)
end

type worker = {
  domain : unit Domain.t;
  inbox : request Chan.t;
  outbox : reply Chan.t;
  pending : op list ref; (* master-side: ops not yet shipped, reversed *)
}

type t = {
  params : params;
  workers : worker array;
  mutable live : bool;
}

let bump_lane lane =
  Obs.Counters.bump c_lane.(if lane < lane_buckets then lane else lane_buckets - 1)

let eval_gate window ~lib ~depth circuit lane gate =
  Obs.Counters.bump c_evaluated;
  bump_lane lane;
  let sub = Netlist.Cone.extract circuit ~pivot:gate ~depth in
  let v = Window.best_size window ~lib sub in
  {
    gate;
    best = v.Window.best;
    co_resizes = v.Window.co_resizes;
    best_cost = v.Window.best_cost;
    current_cost = v.Window.current_cost;
  }

(* Worker body: build the replica, signal Ready, then serve rounds until
   Quit. Any exception (including during construction) is reported through
   the outbox instead of killing the reply protocol. *)
let worker_body params source lane inbox outbox () =
  match
    let circuit = Netlist.Circuit.copy source in
    let full = Ssta.Fullssta.run ~config:params.full_cfg circuit in
    let window =
      Window.create ~mode:params.mode ~engine:Window.Production
        ~area_weight:params.area_weight ~circuit ~model:params.model
        ~objective:params.objective ~full ()
    in
    Chan.put outbox Ready;
    let apply_op = function
      | Commit moves ->
          List.iter (fun (g, c) -> Netlist.Circuit.set_cell circuit g c) moves;
          Window.commit_incremental window ~resized:(List.map fst moves)
      | Refresh resized ->
          ignore
            (Ssta.Fullssta.update ~paranoid:params.paranoid
               ~refresh_electrical:false full ~resized);
          Window.refresh window
    in
    let rec serve () =
      match Chan.take inbox with
      | Quit -> ()
      | Eval (ops, gates) ->
          List.iter apply_op ops;
          (* replicas never consume their dirt — keep the list from growing *)
          ignore (Window.take_dirt window);
          let verdicts =
            Array.map
              (eval_gate window ~lib:params.lib ~depth:params.depth circuit lane)
              gates
          in
          Chan.put outbox (Verdicts verdicts);
          serve ()
    in
    serve ()
  with
  | () -> ()
  | exception e -> Chan.put outbox (Crashed (Printexc.to_string e))

let create ~domains params circuit =
  let spawned = Int.max 0 (domains - 1) in
  let workers =
    Array.init spawned (fun i ->
        let inbox = Chan.create () and outbox = Chan.create () in
        let domain =
          Domain.spawn (worker_body params circuit (i + 1) inbox outbox)
        in
        { domain; inbox; outbox; pending = ref [] })
  in
  let t = { params; workers; live = true } in
  (* Barrier: the master must not mutate [circuit] while replicas copy it. *)
  Array.iter
    (fun w ->
      match Chan.take w.outbox with
      | Ready -> ()
      | Crashed msg ->
          Array.iter (fun w -> Chan.put w.inbox Quit) workers;
          Array.iter (fun w -> Domain.join w.domain) workers;
          failwith ("parwin: replica construction failed: " ^ msg)
      | Verdicts _ -> assert false)
    workers;
  t

let record_op t op =
  Array.iter (fun w -> w.pending := op :: !(w.pending)) t.workers

let record_commit t moves = record_op t (Commit moves)
let record_refresh t resized = record_op t (Refresh resized)
let count_discarded n = Obs.Counters.add c_discarded n
let note_fallback () = Obs.Counters.bump c_fallback

(* Contiguous lane split of [len] items across [lanes]: lane i starts at
   [start i]. Deterministic, but results never depend on it — only the
   per-lane distribution counters do. *)
let lane_start ~len ~lanes i =
  let base = len / lanes and rem = len mod lanes in
  (i * base) + Int.min i rem

let eval_chunk t ~master ~circuit ~gates ~pos ~len =
  Obs.Counters.bump c_rounds;
  let lanes = Array.length t.workers + 1 in
  let start i = pos + lane_start ~len ~lanes i in
  let stop i = pos + lane_start ~len ~lanes (i + 1) in
  (* ship work to every worker with a non-empty slice (pending ops ride
     along; workers with empty slices sync lazily on their next round) *)
  let sent =
    Array.mapi
      (fun i w ->
        let lo = start (i + 1) and hi = stop (i + 1) in
        if hi > lo then begin
          let ops = List.rev !(w.pending) in
          w.pending := [];
          Chan.put w.inbox (Eval (ops, Array.sub gates lo (hi - lo)));
          true
        end
        else false)
      t.workers
  in
  let out = Array.make len None in
  (* master evaluates lane 0 on its own (live) window while workers run *)
  for k = start 0 to stop 0 - 1 do
    out.(k - pos) <-
      Some
        (eval_gate master ~lib:t.params.lib ~depth:t.params.depth circuit 0
           gates.(k))
  done;
  Array.iteri
    (fun i w ->
      if sent.(i) then
        match Chan.take w.outbox with
        | Verdicts vs ->
            Array.iteri (fun j v -> out.(start (i + 1) - pos + j) <- Some v) vs
        | Crashed msg -> failwith ("parwin: worker died: " ^ msg)
        | Ready -> assert false)
    t.workers;
  Array.map
    (function Some v -> v | None -> assert false (* every slot filled *))
    out

let shutdown t =
  if t.live then begin
    t.live <- false;
    Array.iter (fun w -> Chan.put w.inbox Quit) t.workers;
    Array.iter (fun w -> Domain.join w.domain) t.workers
  end
