(* A fixed-size domain work-pool for running independent simulations in
   parallel. Deliberately minimal: stdlib Domain/Mutex/Condition only,
   one batch in flight at a time, results delivered in task order. *)

type batch = {
  run_task : int -> unit; (* stores the task's result or exception itself *)
  n : int;
  mutable next : int; (* next unclaimed task index *)
  mutable completed : int;
}

type t = {
  m : Mutex.t;
  work : Condition.t; (* signalled when a batch is submitted / stop *)
  finished : Condition.t; (* signalled when a batch completes *)
  mutable batch : batch option;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  size : int;
}

let default_size () = max 1 (Domain.recommended_domain_count ())

(* Claim and run tasks until the current batch is drained. Caller must
   NOT hold the lock. *)
let drain t b =
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.m;
    if b.next >= b.n then begin
      Mutex.unlock t.m;
      continue_ := false
    end
    else begin
      let i = b.next in
      b.next <- i + 1;
      Mutex.unlock t.m;
      b.run_task i;
      Mutex.lock t.m;
      b.completed <- b.completed + 1;
      if b.completed = b.n then Condition.broadcast t.finished;
      Mutex.unlock t.m
    end
  done

let worker_loop t () =
  let running = ref true in
  while !running do
    Mutex.lock t.m;
    while
      (not t.stop)
      && match t.batch with None -> true | Some b -> b.next >= b.n
    do
      Condition.wait t.work t.m
    done;
    if t.stop then begin
      Mutex.unlock t.m;
      running := false
    end
    else begin
      let b = match t.batch with Some b -> b | None -> assert false in
      Mutex.unlock t.m;
      drain t b
    end
  done

let create ?size () =
  let size = match size with Some n -> max 1 n | None -> default_size () in
  let t =
    {
      m = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      stop = false;
      workers = [||];
      size;
    }
  in
  (* The submitting thread participates in every batch, so a pool of
     size [n] spawns [n - 1] worker domains; size 1 runs fully inline
     (no domains, bit-identical scheduling to plain serial code). *)
  t.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (worker_loop t));
  t

let size t = t.size

exception Task_error of int * exn

let run : 'a. t -> (unit -> 'a) array -> 'a array =
 fun t tasks ->
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let results : ('a, exn) result option array = Array.make n None in
    let run_task i = results.(i) <- Some (try Ok (tasks.(i) ()) with e -> Error e) in
    if Array.length t.workers = 0 then
      (* Inline serial execution: same task order as submission, every
         task on the submitting thread. *)
      for i = 0 to n - 1 do
        run_task i
      done
    else begin
      let b = { run_task; n; next = 0; completed = 0 } in
      Mutex.lock t.m;
      (match t.batch with
      | Some _ ->
        Mutex.unlock t.m;
        invalid_arg "Par.run: pool already running a batch (not reentrant)"
      | None -> ());
      t.batch <- Some b;
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      (* Participate, then wait for workers still finishing tasks. *)
      drain t b;
      Mutex.lock t.m;
      while b.completed < b.n do
        Condition.wait t.finished t.m
      done;
      t.batch <- None;
      Mutex.unlock t.m
    end;
    (* Deterministic result order regardless of which domain ran what;
       the lowest-index failure wins, as it would serially. *)
    Array.mapi
      (fun i r ->
        match r with
        | Some (Ok v) -> v
        | Some (Error e) -> raise (Task_error (i, e))
        | None -> assert false)
      results
  end

let map t f xs = run t (Array.map (fun x () -> f x) xs)

let map_list t f xs = Array.to_list (map t f (Array.of_list xs))

(* Chunked map: pack the elements into at most [shards] contiguous,
   balanced chunks and submit one pool task per chunk. Long trial
   lists then pay one scheduling handoff per chunk instead of per
   element, and each chunk's elements run serially, in order, on one
   domain — so the flattened result is [List.map f xs] exactly. *)
let map_sharded t ~shards f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let k = max 1 (min shards n) in
  if k <= 1 then List.map f xs
  else begin
    let chunk i =
      (* Chunk [i] covers [lo, hi); k <= n keeps every chunk nonempty. *)
      let lo = i * n / k and hi = (i + 1) * n / k in
      fun () ->
        let out = Array.make (hi - lo) (f arr.(lo)) in
        for j = 1 to hi - lo - 1 do
          out.(j) <- f arr.(lo + j)
        done;
        out
    in
    let parts = run t (Array.init k chunk) in
    List.concat_map Array.to_list (Array.to_list parts)
  end

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers

let with_pool ?size f =
  let t = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
