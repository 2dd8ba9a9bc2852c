(** Uniform interface over the Do-All protocols, hiding each protocol's
    private state and message types so runners, benches and the CLI can treat
    them interchangeably. *)

type packed =
  | Packed : {
      proc : ('s, 'm) Simkit.Types.process;
      show : 'm -> string;  (** payload rendering, for [Obs.Send] tags *)
      passive : 'm -> bool;
          (** the messages an inactive process may send (Protocol B's
              [Go_ahead], Protocol C's [Alive]): the [One_active] audit
              ({!Simkit.Audit.check}) does not count their sender as
              active *)
    }
      -> packed

val no_passive : 'm -> bool
(** [passive] for protocols whose every message marks its sender active. *)

type t = {
  name : string;  (** short identifier, e.g. ["A"], ["B"], ["trivial"] *)
  describe : string;  (** one-line description for --help and tables *)
  make : Spec.t -> packed;  (** instantiate for a problem instance *)
}
