package probe

import (
	"bufio"
	"errors"
	"io"
	"time"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
)

// Serve is the harness's own device-side loop for the traced run: the same
// decode, Handler.Execute, encode cycle as proto.Serve, with execute called
// with the start and end of every Handler.Execute so the driver can record it
// as a child span of the client call that caused it. The untraced run serves
// through the facade instead.
func Serve(rw io.ReadWriter, sys *core.DeepStore, execute func(op string, start, end time.Time)) error {
	h := &proto.Handler{DS: sys}
	bw := bufio.NewWriter(rw)
	for {
		cmd, err := proto.UnmarshalCommand(rw)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			return err
		}
		start := time.Now()
		cpl := h.Execute(cmd)
		execute(cmd.Op.String(), start, time.Now())
		buf, err := proto.MarshalCompletion(cpl)
		if err != nil {
			return err
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// ClientCounters attaches a metrics registry to the client and returns a
// reader of its command, retry and failure counts.
func ClientCounters(c *proto.Client) func() (commands, retries, failures int64) {
	reg := obs.NewRegistry()
	c.AttachObs(reg, nil)
	return func() (int64, int64, int64) {
		return reg.Counter("proto_commands").Value(),
			reg.Counter("proto_retries").Value(),
			reg.Counter("proto_failures").Value()
	}
}

// IsUnsupported reports whether err is the accelerator model's typed refusal
// of a network it cannot map at the requested level (ReId at chip level).
func IsUnsupported(err error) bool {
	var unsup *accel.ErrUnsupported
	return errors.As(err, &unsup)
}
