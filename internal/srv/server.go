package srv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/types"
)

// Wire error codes. The client maps these back to the cluster's sentinel
// errors so errors.Is works across the wire (see WireError.Is).
const (
	CodeOverloaded = "overloaded" // admission queue full / timed out — retryable after backoff
	CodeDeadline   = "deadline"   // statement deadline exceeded
	CodeBusy       = "busy"       // session busy: statement already in flight — retryable
	CodeParse      = "parse"      // statement failed to parse
	CodeBadStmt    = "bad_stmt"   // unknown/closed prepared-statement id or arity mismatch
	CodeNoHello    = "no_hello"   // first frame on a connection must be HELLO
	CodeInternal   = "internal"   // anything else
)

// Options configures a Server.
type Options struct {
	// MaxConns bounds concurrently open connections per transport
	// (0 = unlimited). Connections over the limit are refused with an
	// "overloaded" error. The limit is deliberately generous relative to
	// the admission controller's statement bound: connections are cheap
	// (one idle Session, one map), running statements are the scarce
	// resource.
	MaxConns int
}

// Server fronts a cluster. One Server can serve both transports at once:
// simnet endpoints (AttachSimnet) for in-fabric clients and TCP (Serve)
// for external ones.
type Server struct {
	cluster *core.Cluster
	opts    Options

	mu     sync.Mutex
	conns  map[string]*conn
	simEps []string // front-door endpoint names, set by AttachSimnet // simnet client endpoint name -> connection
	// nextCN round-robins simnet-attached sessions across the CN fleet
	// when the client doesn't pick one.
	nextCN atomic.Uint32

	tcpConns atomic.Int64
	closed   atomic.Bool
}

// NewServer creates a front door for the cluster.
func NewServer(c *core.Cluster, opts Options) *Server {
	return &Server{cluster: c, opts: opts, conns: make(map[string]*conn)}
}

// conn is one client connection: an idle session plus its prepared
// statements. stmtMu guards only the statement table and handshake
// state — statement execution happens outside it, so overlapping frames
// on one connection reach the session concurrently and surface
// core.ErrSessionBusy instead of silently queueing.
type conn struct {
	sess *core.Session

	stmtMu   sync.Mutex
	helloed  bool
	stmts    map[uint32]*core.Prepared
	nextStmt uint32
}

// handle processes one request frame and returns the response frame.
func (s *Server) handle(c *conn, body []byte) []byte {
	if len(body) == 0 {
		return errFrame(CodeInternal, "empty frame")
	}
	cur := &cursor{b: body, off: 1}
	kind := body[0]

	if kind == kindHello {
		tenant := cur.str()
		timeoutMicros := cur.i64()
		if cur.err != nil {
			return errFrame(CodeInternal, "malformed HELLO")
		}
		c.sess.SetTenant(tenant)
		switch {
		case timeoutMicros < 0:
			c.sess.SetStatementTimeout(-1)
		case timeoutMicros > 0:
			c.sess.SetStatementTimeout(time.Duration(timeoutMicros) * time.Microsecond)
		}
		c.stmtMu.Lock()
		c.helloed = true
		c.stmtMu.Unlock()
		return okFrame(0)
	}

	c.stmtMu.Lock()
	helloed := c.helloed
	c.stmtMu.Unlock()
	if !helloed {
		return errFrame(CodeNoHello, "first frame must be HELLO")
	}

	switch kind {
	case kindQuery:
		text := cur.str()
		if cur.err != nil {
			return errFrame(CodeInternal, "malformed QUERY")
		}
		return s.runQuery(c, text)

	case kindPrepare:
		text := cur.str()
		if cur.err != nil {
			return errFrame(CodeInternal, "malformed PREPARE")
		}
		p, err := c.sess.Prepare(text)
		if err != nil {
			return errFrame(CodeParse, err.Error())
		}
		c.stmtMu.Lock()
		c.nextStmt++
		id := c.nextStmt
		c.stmts[id] = p
		c.stmtMu.Unlock()
		return stmtFrame(id, p.NumParams())

	case kindExecute:
		id := cur.u32()
		nargs := int(cur.u32())
		if cur.err != nil || nargs < 0 || nargs > 1<<16 {
			return errFrame(CodeInternal, "malformed EXECUTE")
		}
		args := make([]types.Value, 0, nargs)
		for i := 0; i < nargs; i++ {
			args = append(args, cur.value())
		}
		if cur.err != nil {
			return errFrame(CodeInternal, "malformed EXECUTE values")
		}
		c.stmtMu.Lock()
		p, ok := c.stmts[id]
		c.stmtMu.Unlock()
		if !ok {
			return errFrame(CodeBadStmt, fmt.Sprintf("unknown statement id %d", id))
		}
		res, err := p.Execute(args...)
		if err != nil {
			return s.errorFrame(err)
		}
		return resultFrame(res)

	case kindClose:
		id := cur.u32()
		if cur.err != nil {
			return errFrame(CodeInternal, "malformed CLOSE")
		}
		c.stmtMu.Lock()
		p, ok := c.stmts[id]
		delete(c.stmts, id)
		c.stmtMu.Unlock()
		if !ok {
			return errFrame(CodeBadStmt, fmt.Sprintf("unknown statement id %d", id))
		}
		if err := p.Close(); err != nil {
			return errFrame(CodeBadStmt, err.Error())
		}
		return okFrame(0)

	case kindQuit:
		return okFrame(0)

	default:
		return errFrame(CodeInternal, fmt.Sprintf("unknown frame kind 0x%02x", kind))
	}
}

// runQuery executes a one-shot text statement, with the shell's
// transaction-control spellings special-cased (they are session state
// changes, not statements the parser knows).
func (s *Server) runQuery(c *conn, text string) []byte {
	verb := strings.TrimSuffix(strings.TrimSpace(text), ";")
	switch {
	case strings.EqualFold(verb, "BEGIN"), strings.EqualFold(verb, "START TRANSACTION"):
		if err := c.sess.BeginTxn(); err != nil {
			return s.errorFrame(err)
		}
		return okFrame(0)
	case strings.EqualFold(verb, "COMMIT"):
		if err := c.sess.Commit(); err != nil {
			return s.errorFrame(err)
		}
		return okFrame(0)
	case strings.EqualFold(verb, "ROLLBACK"):
		if err := c.sess.Rollback(); err != nil {
			return s.errorFrame(err)
		}
		return okFrame(0)
	}
	res, err := c.sess.Execute(text)
	if err != nil {
		return s.errorFrame(err)
	}
	return resultFrame(res)
}

// resultFrame renders a statement result.
func resultFrame(res *core.Result) []byte {
	if res.Columns != nil {
		return rowsFrame(res.Columns, res.Rows)
	}
	return okFrame(res.Affected)
}

// errorFrame maps cluster errors onto wire codes.
func (s *Server) errorFrame(err error) []byte {
	switch {
	case errors.Is(err, sql.ErrSyntax):
		return errFrame(CodeParse, err.Error())
	case errors.Is(err, admission.ErrOverloaded):
		return errFrame(CodeOverloaded, err.Error())
	case errors.Is(err, obs.ErrDeadlineExceeded):
		return errFrame(CodeDeadline, err.Error())
	case errors.Is(err, core.ErrSessionBusy):
		return errFrame(CodeBusy, err.Error())
	case errors.Is(err, core.ErrStmtClosed):
		return errFrame(CodeBadStmt, err.Error())
	default:
		return errFrame(CodeInternal, err.Error())
	}
}

// newConn opens a server-side connection bound to a CN (round-robin
// when cn is nil).
func (s *Server) newConn(cn *core.CN) *conn {
	if cn == nil {
		cns := s.cluster.CNs()
		cn = cns[int(s.nextCN.Add(1)-1)%len(cns)]
	}
	return &conn{sess: cn.NewSession(), stmts: make(map[uint32]*core.Prepared)}
}

// --- simnet transport ---------------------------------------------------

// SimSuffix is appended to a CN endpoint name to form its front-door
// endpoint ("cn1-dc1" serves wire frames at "cn1-dc1:srv").
const SimSuffix = ":srv"

// AttachSimnet registers one front-door endpoint per CN on the fabric.
// Frames arrive as []byte messages; the sender's endpoint name
// identifies the connection, so one simulated client = one connection =
// one session. Returns the endpoint names, one per CN.
func (s *Server) AttachSimnet() []string {
	var eps []string
	for _, cn := range s.cluster.CNs() {
		cn := cn
		ep := cn.Name() + SimSuffix
		dc, _ := s.cluster.Net.DCOf(cn.Name())
		s.cluster.Net.Register(ep, dc, func(from string, msg any) (any, error) {
			body, ok := msg.([]byte)
			if !ok || len(body) == 0 {
				return errFrame(CodeInternal, "non-frame message"), nil
			}
			c, errResp := s.simConn(from, cn, body[0] == kindHello)
			if errResp != nil {
				return errResp, nil
			}
			resp := s.handle(c, body)
			if len(body) > 0 && body[0] == kindQuit {
				s.dropSimConn(from)
			}
			return resp, nil
		})
		eps = append(eps, ep)
	}
	s.mu.Lock()
	s.simEps = eps
	s.mu.Unlock()
	return eps
}

// SimEndpoints returns the front-door endpoint names registered by
// AttachSimnet (empty before it runs).
func (s *Server) SimEndpoints() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.simEps...)
}

// simConn resolves (or, on HELLO, creates) the connection for a simnet
// client. A connection is created only by a HELLO frame so that stray
// frames from unknown clients don't leak sessions.
func (s *Server) simConn(from string, cn *core.CN, isHello bool) (*conn, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.conns[from]; ok {
		return c, nil
	}
	if !isHello {
		return nil, errFrame(CodeNoHello, "no connection: send HELLO first")
	}
	if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
		return nil, errFrame(CodeOverloaded, "connection limit reached")
	}
	c := s.newConn(cn)
	s.conns[from] = c
	return c, nil
}

func (s *Server) dropSimConn(from string) {
	s.mu.Lock()
	delete(s.conns, from)
	s.mu.Unlock()
}

// SimConnCount reports open simnet connections (tests, metrics).
func (s *Server) SimConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// --- TCP transport ------------------------------------------------------

// Serve accepts TCP connections until the listener closes. Each
// connection gets one session on a round-robin CN; frames are length-
// prefixed (u32 big-endian body size). Serve blocks; run it in a
// goroutine and close the listener to stop.
func (s *Server) Serve(l net.Listener) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		if s.opts.MaxConns > 0 && s.tcpConns.Load() >= int64(s.opts.MaxConns) {
			writeFrame(nc, errFrame(CodeOverloaded, "connection limit reached"))
			nc.Close()
			continue
		}
		s.tcpConns.Add(1)
		go func() {
			defer s.tcpConns.Add(-1)
			defer nc.Close()
			s.serveTCPConn(nc)
		}()
	}
}

// Close marks the server shut down (Serve returns nil once its listener
// errors out).
func (s *Server) Close() { s.closed.Store(true) }

func (s *Server) serveTCPConn(nc net.Conn) {
	c := s.newConn(nil)
	for {
		body, err := readFrame(nc)
		if err != nil {
			return
		}
		resp := s.handle(c, body)
		if err := writeFrame(nc, resp); err != nil {
			return
		}
		if len(body) > 0 && body[0] == kindQuit {
			return
		}
	}
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("%w: frame size %d", ErrMalformedFrame, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

func writeFrame(w io.Writer, body []byte) error {
	hdr := putU32(make([]byte, 0, 4+len(body)), uint32(len(body)))
	_, err := w.Write(append(hdr, body...))
	return err
}
