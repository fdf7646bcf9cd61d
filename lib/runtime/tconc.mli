(** Tconcs: the queue representation behind guardians (paper Figures 2–4).

    A tconc is a list plus a header pair whose car points at the first cell
    and whose cdr points at the last (spare) cell; the queue is empty when
    both header fields point at the same cell.  The protocols need no
    critical sections: the collector appends by publishing the header's cdr
    {e last}; the mutator removes from the front touching only the header's
    car. *)

val make : Heap.t -> Word.t
(** A fresh empty tconc (the header pair). *)

val is_empty : Heap.t -> Word.t -> bool
val length : Heap.t -> Word.t -> int

val to_list : Heap.t -> Word.t -> Word.t list
(** Elements currently queued, front first. *)

val enqueue_with :
  Heap.t -> alloc_pair:(Word.t -> Word.t -> Word.t) -> Word.t -> Word.t -> unit
(** The append protocol (Figure 3) with ordinary barriered stores.
    [alloc_pair] abstracts where the fresh last cell comes from; tests use
    ordinary allocation. *)

val collector_enqueue : Heap.t -> generation:int -> Word.t -> Word.t -> unit
(** Collector-side append (Figure 3), during a collection: the fresh last
    cell is allocated in [generation] (the target), and the stores are
    card-marked by the collector ({!Heap.note_ref}) rather than counted as
    mutator barrier calls.  The tconc must already be forwarded and
    swept. *)

val mutator_enqueue : Heap.t -> Word.t -> Word.t -> unit
(** Append using ordinary generation-0 allocation. *)

val dequeue : Heap.t -> Word.t -> Word.t option
(** Mutator-side removal (Figure 4), atomic version.  The abandoned front
    cell's fields are cleared to avoid needless storage retention. *)

(** Step-decomposed mutator dequeue: tests interleave an atomic collector
    append between any two steps and check linearizability. *)
module Dequeue : sig
  type t

  val start : Word.t -> t
  val step : Heap.t -> t -> [ `More | `Done of Word.t option ]
  val total_steps : int
end

(** Step-decomposed collector append, for the reverse direction.
    [`Publish_first] is the broken store ordering the checker exposes
    (DESIGN.md D3). *)
module Enqueue : sig
  type order = [ `Publish_last | `Publish_first ]
  type t

  val start : Heap.t -> order:order -> Word.t -> Word.t -> t
  val total_steps : int

  val step : Heap.t -> t -> bool
  (** Execute the next store; true when finished. *)
end
