(** VAS persistence across reboots (paper sec 7).

    With segment memory on NVM, address spaces would survive power
    cycles by construction; on our simulated DRAM machine we provide the
    equivalent systems feature explicitly: {!save} serializes every
    registered segment (metadata, allocator state, and compressed
    contents) and every VAS (segment list, protections, tags) into a
    self-contained image; {!restore} rebuilds them — at the same virtual
    addresses, so persisted pointers remain valid — inside a freshly
    booted system.

    Not persisted: processes and their attachments (they are, by
    design, the transient part of the model), segment locks (released
    by a reboot), and translation caches (rebuilt on demand).
    Copy-on-write sharing is materialized: each snapshot segment is
    saved with its full logical contents and restored as an independent
    segment. *)

val save : Sj_core.Api.system -> bytes
(** Serialize all registered segments and VASes as a two-phase image
    (SJIMG2): header, per-section CRC32 frames, commit record last.
    Deterministic. When the simulation has a fault injector attached, a
    planned [Torn_write] truncates the returned image as if the writer
    died mid-write. *)

val restore : Sj_core.Api.system -> bytes -> unit
(** Rebuild the image's segments and VASes inside [system] (normally a
    freshly booted one). The frame is verified before any state is
    touched: a bad magic, truncated section, CRC mismatch, or missing
    commit record raises the typed [Invalid] fault. Every name is then
    checked before anything is allocated: a segment or VAS name already
    registered, or repeated within the image, raises [Name_exists], and
    a VAS attaching a segment that exists nowhere raises
    [Unknown_name] — either way the system is left untouched. Physical
    exhaustion while rebuilding is not checked up front: it raises
    [Sj_machine.Machine.Out_of_memory] and leaves the segments rebuilt
    so far registered. *)

val committed : bytes -> bool
(** Whether the image verifies end to end (magic, section CRCs, commit
    record) — a torn or bit-flipped image is not committed. *)

(** Append-only journal of committed images. [save] produces one image;
    journaling its history makes recovery robust to torn writes:
    {!Journal.recover} returns the last fully committed image, skipping
    torn or corrupt entries instead of faulting mid-restore. *)
module Journal : sig
  val empty : bytes

  val append : bytes -> bytes -> bytes
  (** [append journal image] is the journal with one entry added
      (length-framed, CRC'd, commit-marked). *)

  val entries : bytes -> int
  (** Structurally complete entries (a torn tail is not counted). *)

  val recover : bytes -> bytes option
  (** The newest entry that is CRC-clean and whose image carries a valid
      commit record; [None] if no committed image survives. *)
end

val image_info : bytes -> string
(** One-line human summary of an image (for [sjctl]). *)

val describe : bytes -> string
(** Multi-line listing of an image: every segment (base, size, prot,
    page size, heap usage) and every VAS (tag, attached segments). *)
