(** The torture harness's reference collector: a trivially-correct,
    non-generational semispace model of the object graph the driver builds
    on the real heap.

    The oracle keeps one record per driver-created object and collects by
    full graph traversal — no remembered set, no cards, no Cheney queue, no
    tconc cells.  Each node carries a {e generation annotation} maintained
    purely from the trace (allocations are generation 0; survivors of a
    collection of generations [0..g] move to the target generation), and a
    collection of generation [g] treats every node of an older generation
    as a root.  That one rule makes the simple model {e exact} with respect
    to the generational heap — old floating garbage keeps its referents
    alive, dirty-card scanning keeps young objects referenced from old ones
    alive — so after every collection the driver can compare liveness,
    structure, weak/ephemeron breaking, guardian queues and promotions
    bit for bit.

    The guardian pass mirrors the paper's Section 4 semantics including its
    order-sensitive detail: the hold/final partition is made {e once}, in
    protected-list order, and a held entry's representative is kept alive
    {e shallowly} at partition time (the collector's [copy] of the rep),
    which can flip a later entry of the same object to "held".
    Resurrection is a least fixpoint, so guardian-of-guardian chains and
    dropped-guardian cancellation come out exactly as the collector's
    worklist fixpoint computes them. *)

open Gbc_runtime

type value =
  | Imm of Word.t  (** any non-pointer word, stored verbatim *)
  | Ref of int  (** a node id *)

type kind =
  | Pair
  | Weakpair  (** car weak, cdr strong *)
  | Ephemeron  (** key weak-ish; value traced only while the key lives *)
  | Vector
  | Box
  | Tconc  (** mutator-driven queue; [queue] is front-first *)
  | Guardian  (** [queue] is the pending (saved) list *)

type node = {
  id : int;
  kind : kind;
  fields : value array;
      (** [Pair]/[Weakpair]/[Ephemeron]: [[|car; cdr|]]; [Vector]:
          elements; [Box]: one field; empty for [Tconc]/[Guardian] *)
  mutable queue : value list;
  mutable gen : int;
  mutable alive : bool;
}

type t

val create : max_generation:int -> generation_friendly_guardians:bool -> t
val node_count : t -> int
val node : t -> int -> node

val alloc : t -> kind -> value array -> int
(** New node in generation 0; returns its id. *)

val set_field : t -> int -> int -> value -> unit
val enqueue : t -> int -> value -> unit
val dequeue : t -> int -> value option

val register : t -> guardian:int -> obj:value -> rep:value -> unit
(** Mirror of {!Guardian.register_with_rep}: the entry joins generation
    0's protected list. *)

val pending : t -> int -> value list
(** A guardian's saved-object queue (resurrection order within one
    collection is unspecified; compare as a multiset). *)

val remove_pending : t -> guardian:int -> f:(value -> bool) -> bool
(** Remove the first pending element satisfying [f]; [false] if none
    does.  Mirrors one {!Guardian.retrieve}. *)

val collect : t -> roots:int list -> gen:int -> target:int -> value list
(** Model a collection of generations [0..gen] promoting survivors to
    [target]: trace from [roots] plus every older node, run the guardian
    partition/resurrection and the ephemeron fixpoint, break weak cars and
    dead-key ephemerons, kill unreached young nodes, promote the rest.
    Returns the reps of the held entries dropped with their guardian: the
    partition kept each one alive, whether or not anything else still
    references it. *)
