(** Guardians: the paper's primary contribution.

    A guardian is created empty; objects are registered with it for
    preservation; once a registered object has been {e proven} inaccessible
    (except through the guardian mechanism itself) by a collection, the
    collector saves it from destruction and appends it to the guardian's
    queue, from which the mutator retrieves objects one at a time with
    {!retrieve}.  Retrieved objects have no special status: they may be
    stored away, re-registered, or dropped again. *)

val make : Heap.t -> Word.t
(** Create a guardian (a typed heap object wrapping a tconc).  Root it
    with a {!Handle.t} if it must survive collections on the OCaml side. *)

val is_guardian : Heap.t -> Word.t -> bool

val tconc : Heap.t -> Word.t -> Word.t
(** The guardian's underlying tconc (exposed for tests and tooling). *)

val id : Heap.t -> Word.t -> int
(** The guardian's stable id (stored in the guardian object, so it
    survives copying collections); keys its row in {!Stats}. *)

val stats : Heap.t -> Word.t -> Stats.guardian
(** Lifecycle metrics of this guardian: registrations, resurrections,
    drops, polls, hits, and poll latency (collections between an entry's
    resurrection and its retrieval). *)

val register : Heap.t -> Word.t -> Word.t -> unit
(** [register h g obj]: an object may be registered with more than one
    guardian, or several times with the same guardian (it is then
    retrievable once per registration).  Registering an immediate is
    allowed but moot — immediates never become inaccessible. *)

val register_with_rep : Heap.t -> Word.t -> obj:Word.t -> rep:Word.t -> unit
(** Generalized interface (paper Section 5): when [obj] becomes
    inaccessible the guardian yields [rep] instead.  [rep] is kept alive by
    the registration; [obj] is {e not} saved.  [register] is the special
    case [rep = obj]. *)

val retrieve : Heap.t -> Word.t -> Word.t option
(** One object proven inaccessible, or [None].  Never blocks, never
    collects: overhead is paid only per clean-up actually performed. *)

val pending_count : Heap.t -> Word.t -> int
(** Objects currently waiting in the guardian's inaccessible group. *)

val pending_list : Heap.t -> Word.t -> Word.t list
