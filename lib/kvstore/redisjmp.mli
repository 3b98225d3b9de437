(** RedisJMP — Redis re-architected over SpaceJMP (§5.3).

    There is no server process. The store's data structures live in a
    lockable segment inside a named VAS; clients execute server code
    *themselves* by switching into that address space. Reads enter
    through a read-only attachment (shared lock — parallel readers);
    writes enter read-write (exclusive lock). Each client carries a
    small private scratch segment for command parsing, because even GET
    handling allocates transient objects and the shared segment is
    read-only on that path. Hash-table resizing is deferred until a
    client holds the exclusive lock.

    Locking here is the *immediate-mode* segment lock (single timeline);
    the discrete-event harness in {!Kv_sim} layers queued waiting on
    top for the multi-client throughput experiments. *)

type t
(** A named RedisJMP store in the system. *)

type client

val init :
  Sj_core.Api.ctx -> name:string -> size:int -> t
(** First-client initialization: creates the VASes (one read-write,
    one read-only view), the lockable data segment, and the store
    structures (lazy server-state construction as in §5.3). *)

val find : Sj_core.Api.ctx -> name:string -> t
(** Look up an existing store in the calling context's system (raises
    the typed [Unknown_name] fault). Stores live in the system registry's
    service map, not in process-global state, so a fresh system starts
    with none and concurrent simulations are independent. *)

val connect : t -> Sj_core.Api.ctx -> ?scratch_size:int -> unit -> client
(** Attach the calling process: builds its rw and ro attachments and
    its private scratch segment. *)

val execute : client -> Resp.command -> Resp.reply
(** Run a command by jumping into the store's address space. Write
    commands take the exclusive path, read commands the shared path.
    If store memory runs out mid-write, the acting client doubles the
    shared segment under its exclusive lock and retries — no other
    client coordinates (§1, §2.3). Raises the [Would_block] fault if the
    segment lock is unavailable. *)

val execute_retry :
  ?attempts:int ->
  ?backoff_cycles:int ->
  client ->
  Resp.command ->
  (Resp.reply, Sj_abi.Error.t) result
(** Like {!execute}, but every switch into the store goes through
    [Api.Checked.switch_retry]: on a lock conflict the client backs off
    (charged, deterministic, linear in simulated cycles) and retries up
    to [attempts] times before giving up with [Error] ([Would_block]).
    The availability harness ({!Kv_avail}) uses this so surviving
    clients ride out the window in which a crashed lock holder has not
    yet been reclaimed. *)

val execute_batch : client -> Resp.command array -> Resp.reply array
(** Run a whole pipelined burst under ONE address-space jump: a single
    switch (exclusive if the burst contains any write, shared
    otherwise), one lock admission, one event-loop wakeup
    ([batch_wakeup_overhead] = 5,000 cycles), then per-command work at
    [batch_per_command] = 1,500 cycles each — the two constants sum to
    the single-command [dispatch_overhead], so a burst of one costs
    exactly what {!execute} charges for dispatch. Replies are in
    command order. Mid-burst out-of-memory grows the segment under the
    held lock and resumes at the failing command. This is the cluster
    shard server's drain path. *)

val execute_batch_retry :
  ?attempts:int ->
  ?backoff_cycles:int ->
  client ->
  Resp.command array ->
  (Resp.reply array, Sj_abi.Error.t) result
(** {!execute_batch} with the switch going through
    [Api.Checked.switch_retry], as {!execute_retry} — how a respawned
    shard server re-enters its segment while the crashed predecessor's
    lock may not yet be reclaimed. *)

val get : client -> string -> bytes option
val set : client -> string -> bytes -> unit
val store : t -> Store.t
val data_segment : t -> Sj_core.Segment.t
val name : t -> string

val rw_vas : t -> Sj_core.Vas.t
(** The read-write VAS clients jump into — where {!Kv_sandbox} carves
    its protection-key compartments. *)

val is_write_command : Resp.command -> bool

(** {2 Keyspace notifications}

    §5.3: publish–subscribe features live in a dedicated notification
    service. With notifications enabled, every successful write command
    publishes an event on the written key's channel. *)

val enable_notifications : client -> Notify.t -> unit
val keyspace_channel : string -> string
(** The channel carrying events for one key ("keyspace:<key>"). *)
