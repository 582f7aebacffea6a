package query

import (
	"context"
	"time"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/msg"
)

// Client evaluates queries through a broker (any rank: requests route
// upstream to rank 0's eval service).
type Client struct {
	b       *broker.Broker
	timeout time.Duration
}

// NewClient wraps a broker for query access.
func NewClient(b *broker.Broker) *Client {
	return &Client{b: b, timeout: DefaultTimeout}
}

// WithTimeout sets the per-call deadline (default DefaultTimeout).
func (c *Client) WithTimeout(d time.Duration) *Client {
	c.timeout = d
	return c
}

// Eval evaluates an expression; endSec 0 means "now".
func (c *Client) Eval(expr string, startSec, endSec float64) (Result, error) {
	resp, err := c.b.CallTimeout(msg.NodeAny, EvalService,
		EvalRequest{Expr: expr, StartSec: startSec, EndSec: endSec}, c.timeout)
	if err != nil {
		return Result{}, err
	}
	var out Result
	if err := resp.Unmarshal(&out); err != nil {
		return Result{}, err
	}
	return out, nil
}

// EvalContext is Eval with a caller-supplied context (the powerapi
// gateway's request contexts).
func (c *Client) EvalContext(ctx context.Context, expr string, startSec, endSec float64) (Result, error) {
	resp, err := c.b.CallContext(ctx, msg.NodeAny, EvalService,
		EvalRequest{Expr: expr, StartSec: startSec, EndSec: endSec})
	if err != nil {
		return Result{}, err
	}
	var out Result
	if err := resp.Unmarshal(&out); err != nil {
		return Result{}, err
	}
	return out, nil
}

// Plan resolves an expression into its absolute plan without executing
// it.
func (c *Client) Plan(expr string, startSec, endSec float64) (PlanSpec, error) {
	resp, err := c.b.CallTimeout(msg.NodeAny, PlanService,
		EvalRequest{Expr: expr, StartSec: startSec, EndSec: endSec}, c.timeout)
	if err != nil {
		return PlanSpec{}, err
	}
	var out PlanSpec
	if err := resp.Unmarshal(&out); err != nil {
		return PlanSpec{}, err
	}
	return out, nil
}

// FetchAll gathers every rank's plan-selected records with a flat
// fan-out — the raw-fetch baseline the pushdown is measured against,
// and the reference evaluator's input. The power monitor serves the
// read, so the engine need not be loaded. Ranks that cannot answer are
// simply absent from the result.
func (c *Client) FetchAll(spec PlanSpec, size int32) []FetchReply {
	ranks := make([]int32, size)
	for i := range ranks {
		ranks[i] = int32(i)
	}
	out := make([]FetchReply, 0, size)
	c.b.Gather(ranks, FetchService, spec, c.timeout, func(_ int32, resp *msg.Message, err error) {
		var reply FetchReply
		if err == nil && resp.Unmarshal(&reply) == nil {
			out = append(out, reply)
		}
	})
	return out
}
