"""Sect. 5 anonymity: anonymous genetic tests under insurance membership.

Run:  python examples/anonymous_clinic.py

"The insurance company must not know the results of the genetic test, or
even that it has taken place.  The clinic, for accounting purposes, must
ensure that the test is authorised under the scheme."

The member's card is an *anonymous* appointment certificate (no holder
binding) carrying only the expiry date.  The clinic's activation rule for
``paid_up_patient`` validates the card by callback to the insurer (a
trusted third party) and checks the date constraint locally — the insurer
learns only that its certificate was validated, never by whom or why.
"""

from repro.core import ActivationDenied, Principal
from repro.domains import Deployment
from repro.scenarios import build_clinic


def main() -> None:
    deployment = Deployment()
    # The insurer's enrolment desk issues membership cards; the clinic's
    # policy (clinic/genetics.oasis) reads
    #     activate paid_up_patient() <-
    #         appointment insurer/membership:insured(e)*, where before(e)
    world = build_clinic(deployment)
    insurer, clinic = world.insurer, world.clinic

    # Enrolment: the desk issues an ANONYMOUS card (holder=None).
    card = world.enrol_member(expiry=365.0)  # day 365, no holder binding
    print(f"membership card issued: insured(expiry={card.parameters[0]}), "
          f"holder={card.holder!r} (anonymous)")

    # The member visits the clinic, proving membership but not identity.
    member = Principal("whoever-presents-the-card")
    session = member.start_session(clinic, "paid_up_patient",
                                   use_appointments=[card])
    print(f"clinic role active: {session.root_rmc.role}")
    print(f"test: {session.invoke(clinic, 'take_genetic_test')}")

    # What did the insurer learn?  Only a validation callback count.
    print(f"insurer saw: {insurer.stats.callbacks_served} validation "
          f"callback(s); it cannot link them to a test or an identity")

    # After expiry, the environmental constraint fails activation.
    deployment.clock.advance(366.0)
    late = Principal("late-member")
    try:
        late.start_session(clinic, "paid_up_patient",
                           use_appointments=[card])
    except ActivationDenied:
        print("after expiry: activation denied by the date constraint")


if __name__ == "__main__":
    main()
