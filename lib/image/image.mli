(** Versioned heap images: checkpoint/restore for the whole runtime.

    The [gbc-image/1] format is a CRC-checked binary snapshot of one
    {!Heap.t}: every live segment (contents verbatim, pointers relocated
    to a canonical image addressing), the segment table, the mutator
    allocation cursors, the global root cells, the per-generation
    guardian protected lists, plus caller-supplied named sections — the
    symbol table of a Scheme system, compiled code, whatever rides along.
    Loading acquires the segments of a {e fresh} heap in image order, so
    the image addressing is the heap's own and words are copied as they
    are; in the same pass per segment it range-checks every pointer,
    reconstructs the remembered set exactly and parses the objects once
    ({!Obj.iter_objects}) to replay the card crossing map.  It then
    re-runs the {!Verify} invariant checker before handing the heap back
    (see [Config.image_verify_on_load]).

    {2 What round-trips}

    Everything that lives {e in} the heap survives bit-for-bit: pairs,
    typed objects, weak pairs and ephemerons (their targets relocated
    like any other slot), guardian objects with their tconc queues
    mid-drain (queue order is plain pair structure), the protected
    lists, generation assignment, and the collection schedule state
    ([collect_count], [gc_epoch], allocation-trigger progress).  Host
    state — OCaml closures such as root scanners, weak scanners, wills'
    finalization procedures, the collect-request handler, open port file
    descriptors — is the embedder's to re-establish after a load (see
    doc/EMBEDDING.md).

    {2 Canonical form}

    A save is a pure function of heap contents: live segments are
    renumbered [0..n-1] in ascending id order and every pointer is
    rewritten into that numbering, so two heaps with equal contents
    produce equal bytes.  A load acquires the segments of a fresh heap
    in image order — ids [0..n-1] again — so save → load → save is
    byte-identical, which CI and the torture harness's [checkpoint] op
    both assert. *)

open Gbc_runtime

exception Error of string
(** Every failure of {!save_string}/{!load_string} and the file variants:
    bad magic, unsupported version, truncation, CRC mismatch,
    inconsistent tables, config mismatch, post-load verification.  The
    message is a complete one-line diagnostic prefixed ["gbc-image:"].
    File I/O itself raises [Sys_error] as usual. *)

type extra = {
  xwords : Word.t array;
      (** heap words; relocated by the writer and range-checked by the
          reader like any heap slot, so they come back pointing into the
          restored heap *)
  xbytes : string;  (** opaque payload, stored verbatim *)
}
(** A named section a client layers on top of the heap image (the Scheme
    machine stores its symbol-interning table, compiled code and literal
    pool this way). *)

type loaded = {
  heap : Heap.t;  (** the rebuilt heap, verified when configured to *)
  symbols : (string * Word.t) list;
      (** the symbol section, words relocated into [heap] *)
  extras : (string * extra) list;
      (** named sections in image order, [xwords] relocated into [heap] *)
  image_bytes : int;  (** size of the image consumed *)
  restored_words : int;  (** live heap words rebuilt *)
  restored_segments : int;
}

val save_string :
  ?symbols:(string * Word.t) list ->
  ?extras:(string * extra) list ->
  Heap.t ->
  string
(** Serialize the heap (plus the symbol section, sorted by name, and the
    named extras in caller order) to [gbc-image/1] bytes.  Times itself
    under the {!Telemetry.Image_save} phase and bumps the image
    counters in {!Stats}.
    @raise Error when called during a collection or from a finalization
    thunk, or if a root/slot points into a dead segment. *)

val load_string : ?config:Config.t -> string -> loaded
(** Rebuild a fresh heap from image bytes.  [config] must agree with the
    image on [segment_words] and [max_generation]; when omitted, a
    default configuration with the image's geometry is used.  The
    loader's own segment acquisitions are exempt from fault injection.
    Times itself under {!Telemetry.Image_load} (on the new heap's hub)
    and bumps the image counters in {!Stats}.
    @raise Error on any malformed, truncated, corrupt or incompatible
    image, and on a post-load {!Verify} failure. *)

val save_image :
  ?symbols:(string * Word.t) list ->
  ?extras:(string * extra) list ->
  Heap.t ->
  string ->
  unit
(** [save_image h path]: {!save_string} written atomically-enough
    (single [output_string]) to [path]. *)

val load_image : ?config:Config.t -> string -> loaded
(** [load_image path]: read [path] and {!load_string} it. *)

(** {2 Format constants} (exposed for tests) *)

val magic : string  (** ["GBCIMG01"], 8 bytes *)

val format_version : int  (** 1 *)

val crc32 : string -> pos:int -> len:int -> int
(** The IEEE 802.3 CRC-32 (polynomial 0xEDB88320) the trailer carries. *)
