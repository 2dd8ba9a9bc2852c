type pid = int
type round = int
type 'm send = { dst : pid; payload : 'm }
type 'm envelope = { src : pid; sent_at : round; payload : 'm }

type ('s, 'm) outcome = {
  state : 's;
  sends : 'm send list;
  work : int list;
  terminate : bool;
  wakeup : round option;
}

type 's run = { unit0 : int; units : int; len : int; at : int -> 's }

type ('s, 'm) process = {
  init : pid -> 's * round option;
  step : pid -> round -> 's -> 'm envelope list -> ('s, 'm) outcome;
  ahead : round -> 's -> 's run option;
}

let no_ahead _ _ = None

type status = Running | Terminated of round | Crashed of round

let is_retired = function Running -> false | Terminated _ | Crashed _ -> true

let status_to_string = function
  | Running -> "running"
  | Terminated r -> Printf.sprintf "terminated@%d" r
  | Crashed r -> Printf.sprintf "crashed@%d" r
