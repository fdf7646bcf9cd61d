(** Tconcs: the queue representation behind guardians (paper Figures 2–4).

    A tconc is a list plus a header pair whose car points at the first cell
    of the list and whose cdr points at the last cell.  The list always ends
    with one spare cell whose fields are don't-care values; the queue is
    empty when the header's car and cdr point at the same cell.

    The protocols are designed so that no critical sections are needed:

    - the {e collector} appends by (1) storing the element into the old last
      cell's car, (2) linking the old last cell's cdr to a fresh cell, and
      (3) {e only then} publishing the new last cell in the header's cdr —
      the mutator cannot observe a half-installed element;
    - the {e mutator} removes from the front by moving the header's car to
      the second cell; it never touches the header's cdr.

    The step-decomposed mutator dequeue ({!Dequeue}) lets tests interleave a
    full (atomic) collector append between any two mutator steps and check
    linearizability — the paper's lock-freedom argument, mechanized. *)

let make h =
  let z = Obj.cons h Word.false_ Word.nil in
  Obj.cons h z z

let is_empty h tc = Word.equal (Obj.car h tc) (Obj.cdr h tc)

(** Number of elements currently in the queue. *)
let length h tc =
  let last = Obj.cdr h tc in
  let rec loop cell n =
    if Word.equal cell last then n else loop (Obj.cdr h cell) (n + 1)
  in
  loop (Obj.car h tc) 0

(** Elements currently in the queue, front first. *)
let to_list h tc =
  let last = Obj.cdr h tc in
  let rec loop cell acc =
    if Word.equal cell last then List.rev acc
    else loop (Obj.cdr h cell) (Obj.car h cell :: acc)
  in
  loop (Obj.car h tc) []

(** The append protocol (Figure 3) with ordinary mutator stores.
    [alloc_pair] abstracts where the fresh last cell comes from; tests and
    the mutator-side variant use ordinary allocation. *)
let enqueue_with h ~alloc_pair tc obj =
  let stats = Heap.stats h in
  stats.Stats.tconc_enqueues <- stats.Stats.tconc_enqueues + 1;
  let old_last = Obj.cdr h tc in
  let new_last = alloc_pair Word.false_ Word.nil in
  Obj.set_car h old_last obj;
  Obj.set_cdr h old_last new_last;
  (* Final update: publish.  Until this store the mutator still sees the old
     last cell as the end marker and ignores the new element. *)
  Obj.set_cdr h tc new_last

(** Collector-side append (Figure 3), run inside a collection: the fresh
    last cell goes straight to the target [generation], and the stores
    are recorded with the collector's card marking ({!Heap.note_ref}), not
    the mutator write barrier — they are not mutator stores.  [tc] must
    already be forwarded and swept, so its fields point out of
    from-space. *)
let[@inline] collector_enqueue h ~generation tc obj =
  let stats = Heap.stats h in
  stats.Stats.tconc_enqueues <- stats.Stats.tconc_enqueues + 1;
  assert (Word.is_pair_ptr tc);
  let tc_cdr = Word.addr tc + 1 in
  let old_last = Heap.load h tc_cdr in
  assert (Word.is_pair_ptr old_last);
  let cell = Heap.gc_alloc h ~space:Space.Pair ~generation 2 in
  Heap.store h cell Word.false_;
  Heap.store h (cell + 1) Word.nil;
  let new_last = Word.pair_ptr cell in
  let at = Word.addr old_last in
  Heap.store h at obj;
  Heap.note_ref h ~addr:at ~gen:(Heap.generation_of_word h obj);
  Heap.store h (at + 1) new_last;
  Heap.note_ref h ~addr:(at + 1) ~gen:generation;
  (* Final update: publish.  Until this store the mutator still sees the old
     last cell as the end marker and ignores the new element. *)
  Heap.store h tc_cdr new_last;
  Heap.note_ref h ~addr:tc_cdr ~gen:generation

(** Step-decomposed collector append, for the interleaving checker.

    The paper designs the protocols so that {e neither} side needs a
    critical section: the mutator-interrupts-collector direction (relevant
    to future incremental collectors, as the paper notes) requires the
    element store and the cell link to happen {e before} the header's cdr is
    published.  [`Published_first] is the broken ordering that publishes the
    header's cdr first; the checker demonstrates it lets a concurrent
    dequeue observe the half-installed cell (DESIGN.md D3). *)
module Enqueue = struct
  type order = [ `Publish_last | `Publish_first ]

  type t = {
    tc : Word.t;
    obj : Word.t;
    order : order;
    mutable old_last : Word.t;
    mutable new_last : Word.t;
    mutable stage : int;
  }

  let start h ~order tc obj =
    (* Reading the old last cell and allocating the fresh one involve no
       store visible to the mutator; they form the preparation stage. *)
    let old_last = Obj.cdr h tc in
    let new_last = Obj.cons h Word.false_ Word.nil in
    { tc; obj; order; old_last; new_last; stage = 0 }

  let total_steps = 3

  let step h t =
    let install_element () = Obj.set_car h t.old_last t.obj in
    let link_cell () = Obj.set_cdr h t.old_last t.new_last in
    let publish () = Obj.set_cdr h t.tc t.new_last in
    let actions =
      match t.order with
      | `Publish_last -> [| install_element; link_cell; publish |]
      | `Publish_first -> [| publish; install_element; link_cell |]
    in
    if t.stage >= total_steps then invalid_arg "Tconc.Enqueue.step: finished";
    actions.(t.stage) ();
    t.stage <- t.stage + 1;
    t.stage >= total_steps
end

(** Mutator-side append using ordinary generation-0 allocation. *)
let mutator_enqueue h tc obj =
  enqueue_with h ~alloc_pair:(fun a d -> Obj.cons h a d) tc obj

(** Mutator-side removal (Figure 4), atomic version. *)
let dequeue h tc =
  if is_empty h tc then None
  else begin
    let stats = Heap.stats h in
    stats.Stats.tconc_dequeues <- stats.Stats.tconc_dequeues + 1;
    let x = Obj.car h tc in
    let v = Obj.car h x in
    Obj.set_car h tc (Obj.cdr h x);
    (* Clear the abandoned cell: it may live in an older generation than the
       values it points at, and keeping the pointers would retain storage
       needlessly (paper, Section 4). *)
    Obj.set_car h x Word.false_;
    Obj.set_cdr h x Word.false_;
    Some v
  end

(* ------------------------------------------------------------------ *)
(* Step-decomposed mutator dequeue for interleaving tests.             *)

module Dequeue = struct
  type t = {
    tc : Word.t;
    mutable stage : int;
    mutable x : Word.t;
    mutable v : Word.t;
  }

  let start tc = { tc; stage = 0; x = Word.false_; v = Word.false_ }

  (** Execute one primitive mutator step.  Returns [`Done r] after the last
      step.  A collector append may be interposed before any step. *)
  let step h t =
    match t.stage with
    | 0 ->
        if is_empty h t.tc then `Done None
        else begin
          t.stage <- 1;
          `More
        end
    | 1 ->
        t.x <- Obj.car h t.tc;
        t.stage <- 2;
        `More
    | 2 ->
        t.v <- Obj.car h t.x;
        t.stage <- 3;
        `More
    | 3 ->
        Obj.set_car h t.tc (Obj.cdr h t.x);
        t.stage <- 4;
        `More
    | 4 ->
        Obj.set_car h t.x Word.false_;
        t.stage <- 5;
        `More
    | 5 ->
        Obj.set_cdr h t.x Word.false_;
        t.stage <- 6;
        `Done (Some t.v)
    | _ -> invalid_arg "Tconc.Dequeue.step: already finished"

  let total_steps = 6
end
