type config = { trip_threshold : int; cooldown : int; max_cooldown : int }

let default_config = { trip_threshold = 3; cooldown = 8; max_cooldown = 64 }

let validate_config c =
  if c.trip_threshold < 1 then Error "trip_threshold must be >= 1"
  else if c.cooldown < 1 then Error "cooldown must be >= 1"
  else if c.max_cooldown < c.cooldown then
    Error "max_cooldown must be >= cooldown"
  else Ok ()

type state = Closed | Open | Half_open

type t = {
  cfg : config;
  mutable st : state;
  mutable failures : int;       (* consecutive faults while Closed *)
  mutable remaining : int;      (* Open: ticks until Half_open *)
  mutable next_cooldown : int;  (* doubled on every reopen, capped *)
  mutable probing : bool;       (* Half_open: probe slot claimed *)
}

let create cfg =
  (match validate_config cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Breaker.create: " ^ e));
  {
    cfg;
    st = Closed;
    failures = 0;
    remaining = 0;
    next_cooldown = cfg.cooldown;
    probing = false;
  }

let state t = t.st

type transition = No_change | Tripped | Reclosed | Reopened

let acquire t =
  match t.st with
  | Closed -> Some `Route
  | Open -> None
  | Half_open ->
    if t.probing then None
    else begin
      t.probing <- true;
      Some `Probe
    end

let tick t =
  match t.st with
  | Open ->
    t.remaining <- t.remaining - 1;
    if t.remaining <= 0 then begin
      t.st <- Half_open;
      t.probing <- false
    end
  | Closed | Half_open -> ()

let trip t =
  t.st <- Open;
  t.failures <- 0;
  t.probing <- false;
  t.remaining <- t.next_cooldown

let record t ~probe ~ok =
  match (t.st, probe) with
  | Closed, false ->
    if ok then begin
      t.failures <- 0;
      No_change
    end
    else begin
      t.failures <- t.failures + 1;
      if t.failures >= t.cfg.trip_threshold then begin
        trip t;
        Tripped
      end
      else No_change
    end
  | Half_open, true ->
    t.probing <- false;
    if ok then begin
      t.st <- Closed;
      t.failures <- 0;
      t.next_cooldown <- t.cfg.cooldown;
      Reclosed
    end
    else begin
      t.next_cooldown <- min (2 * t.next_cooldown) t.cfg.max_cooldown;
      trip t;
      Reopened
    end
  (* Stale outcomes — the breaker moved on while this run was in flight
     (another request tripped it, or the probe window closed). *)
  | (Open | Half_open), false | (Closed | Open), true -> No_change
