module Wire = Drd_explore.Wire

type t = {
  m_started : float;
  mutable m_lines : int;
  mutable m_events : int;
  mutable m_sessions_opened : int;
  mutable m_sessions_closed : int;
  mutable m_errors : int;
  (* Lifetime totals contributed by sessions that have closed; open
     sessions' shares are supplied at snapshot time. *)
  mutable m_closed_races : int;
  mutable m_closed_evictions : int;
  (* Instantaneous-rate window, reset at every snapshot. *)
  mutable m_win_events : int;
  mutable m_win_t0 : float;
  (* Running maximum of the major heap, sampled by the server loop. *)
  mutable m_heap_max : int;
}

let create ~now =
  {
    m_started = now;
    m_lines = 0;
    m_events = 0;
    m_sessions_opened = 0;
    m_sessions_closed = 0;
    m_errors = 0;
    m_closed_races = 0;
    m_closed_evictions = 0;
    m_win_events = 0;
    m_win_t0 = now;
    m_heap_max = 0;
  }

let on_line m = m.m_lines <- m.m_lines + 1

let on_events m n =
  m.m_events <- m.m_events + n;
  m.m_win_events <- m.m_win_events + n

let on_session_open m = m.m_sessions_opened <- m.m_sessions_opened + 1
let on_error m = m.m_errors <- m.m_errors + 1

let absorb_session m ~events:_ ~races ~evictions =
  m.m_sessions_closed <- m.m_sessions_closed + 1;
  m.m_closed_races <- m.m_closed_races + races;
  m.m_closed_evictions <- m.m_closed_evictions + evictions

let live_sessions m = m.m_sessions_opened - m.m_sessions_closed

let sample_heap m =
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > m.m_heap_max then m.m_heap_max <- h

let rate events dt = float_of_int events /. Float.max dt 1e-9

let stats_json m ~now ~live_locations ~live_races ~live_evictions =
  sample_heap m;
  let win_rate = rate m.m_win_events (now -. m.m_win_t0) in
  let total_rate = rate m.m_events (now -. m.m_started) in
  m.m_win_events <- 0;
  m.m_win_t0 <- now;
  Wire.Obj
    [
      ("uptime_s", Wire.Float (now -. m.m_started));
      ("lines", Wire.Int m.m_lines);
      ("events", Wire.Int m.m_events);
      ("events_per_sec", Wire.Float win_rate);
      ("events_per_sec_total", Wire.Float total_rate);
      ("sessions_opened", Wire.Int m.m_sessions_opened);
      ("sessions_closed", Wire.Int m.m_sessions_closed);
      ("live_sessions", Wire.Int (live_sessions m));
      ("live_locations", Wire.Int live_locations);
      ("evictions", Wire.Int (m.m_closed_evictions + live_evictions));
      ("races_found", Wire.Int (m.m_closed_races + live_races));
      ("errors", Wire.Int m.m_errors);
      ("heap_words_max", Wire.Int m.m_heap_max);
    ]
