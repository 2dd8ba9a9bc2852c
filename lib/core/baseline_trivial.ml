open Simkit.Types

type state = { next_unit : int; n : int }

type msg = |

let show_msg : msg -> string = function _ -> .

let make spec =
  let n = Spec.n spec in
  let init _pid = ({ next_unit = 0; n }, Some 0) in
  let step _pid _round st _inbox =
    let u = st.next_unit in
    {
      state = { st with next_unit = u + 1 };
      sends = [];
      work = [ u ];
      terminate = u + 1 >= st.n;
      wakeup = Some (u + 1);
    }
  in
  Protocol.Packed
    {
      proc = { init; step; ahead = no_ahead };
      show = show_msg;
      passive = Protocol.no_passive;
    }

let protocol =
  {
    Protocol.name = "trivial";
    describe = "every process performs every unit; 0 msgs, tn work";
    make;
  }
