(** The generation-based stop-and-copy collector, with the paper's guardian
    and weak-pair passes.

    A collection of generation [g] collects generations [0..g] into the
    target generation chosen by the promotion policy.  Phases: condemn,
    root scan + remembered-set scan, Cheney sweep to a fixpoint, the
    {b guardian pass} (paper Section 4: pend-hold / pend-final /
    kleene-sweep), the {b weak pass} (after the guardian pass, so weak
    pointers to saved objects survive), weak scanners, reclamation. *)

type outcome = {
  generation : int;  (** oldest generation collected *)
  target : int;
  duration_ns : float;
}

val collect : ?weak_pass_first:bool -> Heap.t -> gen:int -> outcome
(** Run a collection of generations [0..gen].

    [weak_pass_first] (default false) swaps the guardian and weak passes;
    it exists {e only} so tests can demonstrate that the paper's order is
    essential (a weak pointer to a guardian-saved object would be broken).

    @raise Invalid_argument if already collecting or [gen] is out of
    range.  Re-raises the first exception of a raising callback, after
    the collection has completed (see {!Heap.callback}). *)
