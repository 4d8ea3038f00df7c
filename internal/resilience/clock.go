package resilience

// Micros is the resilience layer's time unit: virtual microseconds. Every
// duration the layer decides with — budget refill, breaker cooldown, hedge
// delay, served latency — is a Micros, and every timestamp arrives on the
// request (Request.At), never from the wall clock. That is the whole
// determinism story: the wrapper's decisions are a function of the
// requests it is handed and the times stamped on them, so the same request
// sequence settles to the same decisions no matter how fast the hardware
// is.
type Micros int64
