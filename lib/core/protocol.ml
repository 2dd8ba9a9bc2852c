type packed =
  | Packed : {
      proc : ('s, 'm) Simkit.Types.process;
      show : 'm -> string;
      passive : 'm -> bool;
    }
      -> packed

let no_passive _ = false

type t = { name : string; describe : string; make : Spec.t -> packed }
