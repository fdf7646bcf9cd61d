(** Growable arrays (OCaml 5.1 has no [Dynarray]). *)

module Int : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val is_empty : t -> bool
  val clear : t -> unit

  val reset : t -> unit
  (** Empty the vector and release its storage beyond 16 elements. *)

  val push : t -> int -> unit
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val pop : t -> int
  val truncate : t -> int -> unit
  val iter : t -> f:(int -> unit) -> unit
  val iteri : t -> f:(int -> int -> unit) -> unit
  val to_list : t -> int list
end

module Poly : sig
  type 'a t

  val create : ?capacity:int -> dummy:'a -> unit -> 'a t
  (** [dummy] fills unused slots so cleared elements do not retain
      host-heap references. *)

  val length : 'a t -> int
  val is_empty : 'a t -> bool
  val clear : 'a t -> unit
  val push : 'a t -> 'a -> unit
  val get : 'a t -> int -> 'a
  val set : 'a t -> int -> 'a -> unit
  val pop : 'a t -> 'a
  val iter : 'a t -> f:('a -> unit) -> unit
  val to_list : 'a t -> 'a list
end
